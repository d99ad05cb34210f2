package telemetry

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceStore assembles completed spans into traces and decides, at each
// trace's end, whether the trace is worth keeping — tail-based sampling.
// PR 2's spans die individually in the recent-span ring; the store is what
// turns them into an answer to "why was this publish slow at the tail?".
//
// Assembly: every completed span is appended to a pending entry keyed by
// its TraceID. A trace finishes when its *root* ends — either a true root
// (Parent == 0, the span that started the trace in this process) or a
// process-local root (the first span started under a trace context that
// arrived over the wire; see ContextWithRemote). Each process therefore
// keeps its own portion of a cross-process trace, queryable by the shared
// TraceID.
//
// Sampling policy, applied when a trace finishes:
//
//  1. error traces (any span marked Fail) are always kept;
//  2. traces whose root latency reaches the rolling per-root-name p99 are
//     kept ("tail") — the threshold comes from a per-name log2 histogram of
//     every root observed, recomputed periodically, and only activates
//     after a warmup so early traces don't all look slow;
//  3. the rest are head-sampled: 1 of every HeadSampleEvery survives.
//
// Kept traces live in an LRU bounded by both a trace count and a byte
// budget; pending (in-assembly) entries are bounded separately, evicting
// the oldest when a hostile or span-leaking workload overflows them. All
// bounds make tracing memory constant regardless of traffic.
type TraceStore struct {
	opt TraceStoreOptions

	shards    [traceShards]traceShard
	pendCount atomic.Int64
	pendSeq   atomic.Uint64
	headN     atomic.Uint64

	gateMu sync.RWMutex
	gates  map[string]*tailGate

	keptMu    sync.Mutex
	kept      map[ID]*list.Element // value: *Trace
	keptOrder *list.List           // front = most recently kept
	keptBytes int64

	// Counters land in the owning registry, so sampling behaviour is
	// visible through soma.telemetry and the Prometheus endpoint.
	cKeptErr     *Counter
	cKeptTail    *Counter
	cKeptHead    *Counter
	cDropped     *Counter
	cEvicted     *Counter
	cPendDropped *Counter
	gKept        *Gauge
	gKeptBytes   *Gauge
	gPending     *Gauge
}

// TraceStoreOptions bounds and tunes a TraceStore. The zero value selects
// the defaults noted on each field.
type TraceStoreOptions struct {
	// MaxTraces caps the kept-trace LRU (default 128).
	MaxTraces int
	// MaxBytes caps the approximate retained bytes of kept traces
	// (default 1 MiB). Whichever of MaxTraces/MaxBytes trips first evicts.
	MaxBytes int64
	// MaxSpansPerTrace caps spans retained per trace (default 256); spans
	// beyond it are counted in Trace.DroppedSpans instead of stored.
	MaxSpansPerTrace int
	// MaxPending caps traces under assembly (default 4096). When a new
	// trace arrives at the cap, the oldest pending entry in its shard is
	// abandoned — pending entries only leak when spans never reach a root.
	// Eviction is shard-local, so the cap is approximate within one entry
	// per shard.
	MaxPending int
	// HeadSampleEvery keeps 1 of every N traces that are neither errored
	// nor tail-slow (default 64). Negative disables head sampling.
	HeadSampleEvery int
	// TailMinSamples is how many completions a root name needs before its
	// rolling p99 threshold activates (default 64).
	TailMinSamples int
}

func (o *TraceStoreOptions) defaults() {
	if o.MaxTraces <= 0 {
		o.MaxTraces = 128
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 1 << 20
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 256
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	if o.HeadSampleEvery == 0 {
		o.HeadSampleEvery = 64
	}
	if o.TailMinSamples <= 0 {
		o.TailMinSamples = 64
	}
}

const (
	traceShards = 8
	// tailRecalcEvery is how often (in completions per root name) the
	// cached p99 threshold is recomputed; between recomputes the sampler
	// fast path is one atomic load and a compare.
	tailRecalcEvery = 64
	// maxTailGates bounds distinct per-root-name histograms; overflow
	// names share one gate so a hostile name cardinality can't grow memory.
	maxTailGates = 256
)

// Trace keep reasons.
const (
	KeepError = "error"
	KeepTail  = "tail"
	KeepHead  = "head"
)

// Trace is one kept trace: this process's spans for a TraceID, plus the
// root-derived summary fields. It is the soma.trace.get answer, its fields
// named on the wire by the conduit tags and in the gateway's
// /api/traces/{id} by the json tags.
type Trace struct {
	TraceID ID             `conduit:"trace" json:"trace_id"`
	Root    string         `conduit:"root" json:"root"` // root span name
	Start   time.Time      `conduit:"start_ns" json:"start"`
	Dur     time.Duration  `conduit:"dur_ns" json:"dur_ns"` // root span duration
	Err     bool           `conduit:"err" json:"err"`
	Reason  string         `conduit:"reason" json:"reason"` // KeepError, KeepTail or KeepHead
	Spans   []SpanSnapshot `conduit:"spans" json:"spans"`
	// DroppedSpans counts spans beyond MaxSpansPerTrace that were observed
	// but not retained.
	DroppedSpans int `conduit:"dropped_spans" json:"dropped_spans,omitempty"`

	bytes int64
}

// TraceSummary is the list-view projection of a kept trace; soma.trace.list
// answers a list of them.
type TraceSummary struct {
	TraceID ID            `conduit:"trace" json:"trace_id"`
	Root    string        `conduit:"root" json:"root"`
	Start   time.Time     `conduit:"start_ns" json:"start"`
	Dur     time.Duration `conduit:"dur_ns" json:"dur_ns"`
	Spans   int           `conduit:"spans" json:"spans"`
	Err     bool          `conduit:"err" json:"err"`
	Reason  string        `conduit:"reason" json:"reason"`
}

type pendingTrace struct {
	seq     uint64
	spans   []SpanSnapshot
	bytes   int64
	err     bool
	hasRoot bool
	dropped int
}

type traceShard struct {
	mu      sync.Mutex
	pending map[ID]*pendingTrace
}

// tailGate is one root name's rolling latency distribution plus its cached
// p99 threshold (0 = not yet warmed up).
type tailGate struct {
	hist      Histogram
	threshold atomic.Int64
}

// newTraceStore builds a store whose sampling counters land in reg.
func newTraceStore(opt TraceStoreOptions, reg *Registry) *TraceStore {
	opt.defaults()
	ts := &TraceStore{
		opt:          opt,
		gates:        map[string]*tailGate{},
		kept:         map[ID]*list.Element{},
		keptOrder:    list.New(),
		cKeptErr:     reg.Counter("telemetry.traces.kept.error"),
		cKeptTail:    reg.Counter("telemetry.traces.kept.tail"),
		cKeptHead:    reg.Counter("telemetry.traces.kept.head"),
		cDropped:     reg.Counter("telemetry.traces.dropped"),
		cEvicted:     reg.Counter("telemetry.traces.evicted"),
		cPendDropped: reg.Counter("telemetry.traces.pending.dropped"),
		gKept:        reg.Gauge("telemetry.traces.kept"),
		gKeptBytes:   reg.Gauge("telemetry.traces.kept_bytes"),
		gPending:     reg.Gauge("telemetry.traces.pending"),
	}
	for i := range ts.shards {
		ts.shards[i].pending = map[ID]*pendingTrace{}
	}
	return ts
}

// spanBytes approximates a retained span's memory cost for the byte budget.
func spanBytes(s SpanSnapshot) int64 {
	return int64(len(s.Name)) + 64
}

// record ingests one completed span; localRoot marks a process-local root
// (see ContextWithRemote). Called from Span.EndAt — this is the sampler's
// hot path, benchmarked by BenchmarkTraceTailSampler and covered by the
// ≤5% traced-ingest overhead gate.
func (ts *TraceStore) record(s SpanSnapshot, localRoot bool) {
	if s.TraceID == 0 {
		return
	}
	sh := &ts.shards[s.TraceID%traceShards]
	sh.mu.Lock()
	pt := sh.pending[s.TraceID]
	if pt == nil {
		if ts.pendCount.Load() >= int64(ts.opt.MaxPending) {
			ts.evictOldestPendingLocked(sh)
		}
		pt = &pendingTrace{seq: ts.pendSeq.Add(1)}
		sh.pending[s.TraceID] = pt
		ts.gPending.Set(ts.pendCount.Add(1))
	}
	if len(pt.spans) < ts.opt.MaxSpansPerTrace {
		pt.spans = append(pt.spans, s)
		pt.bytes += spanBytes(s)
	} else {
		pt.dropped++
	}
	if s.Err {
		pt.err = true
	}
	isRoot := s.Parent == 0
	if isRoot {
		pt.hasRoot = true
	}
	// A process-local root only closes the trace when no true root lives in
	// this process (single-process loopback traces wait for the real root).
	if !isRoot && !(localRoot && !pt.hasRoot) {
		sh.mu.Unlock()
		return
	}
	delete(sh.pending, s.TraceID)
	ts.gPending.Set(ts.pendCount.Add(-1))
	sh.mu.Unlock()
	ts.finish(s, pt)
}

// evictOldestPendingLocked abandons the oldest pending entry in sh (the
// caller holds sh.mu). Pending entries are shard-local, so "oldest" is per
// shard — an approximation that keeps eviction O(shard size).
func (ts *TraceStore) evictOldestPendingLocked(sh *traceShard) {
	var (
		oldID  ID
		oldSeq uint64
		found  bool
	)
	for id, pt := range sh.pending {
		if !found || pt.seq < oldSeq {
			oldID, oldSeq, found = id, pt.seq, true
		}
	}
	if found {
		delete(sh.pending, oldID)
		ts.gPending.Set(ts.pendCount.Add(-1))
		ts.cPendDropped.Inc()
	}
}

// finish applies the sampling decision to a finished trace.
func (ts *TraceStore) finish(root SpanSnapshot, pt *pendingTrace) {
	reason, keep := ts.decide(root, pt)
	if !keep {
		ts.cDropped.Inc()
		return
	}
	switch reason {
	case KeepError:
		ts.cKeptErr.Inc()
	case KeepTail:
		ts.cKeptTail.Inc()
	default:
		ts.cKeptHead.Inc()
	}
	ts.keep(root, pt, reason)
}

func (ts *TraceStore) decide(root SpanSnapshot, pt *pendingTrace) (string, bool) {
	if pt.err || root.Err {
		return KeepError, true
	}
	g := ts.gate(root.Name)
	g.hist.Observe(root.Dur)
	n := g.hist.Count()
	if n >= uint64(ts.opt.TailMinSamples) {
		if g.threshold.Load() == 0 || n%tailRecalcEvery == 0 {
			g.threshold.Store(int64(g.hist.Quantile(0.99)) | 1) // |1: never store 0
		}
		if thr := g.threshold.Load(); int64(root.Dur) >= thr {
			return KeepTail, true
		}
	}
	if every := ts.opt.HeadSampleEvery; every > 0 && ts.headN.Add(1)%uint64(every) == 0 {
		return KeepHead, true
	}
	return "", false
}

func (ts *TraceStore) gate(name string) *tailGate {
	ts.gateMu.RLock()
	g := ts.gates[name]
	ts.gateMu.RUnlock()
	if g != nil {
		return g
	}
	ts.gateMu.Lock()
	defer ts.gateMu.Unlock()
	if g = ts.gates[name]; g != nil {
		return g
	}
	if len(ts.gates) >= maxTailGates {
		name = "\x00overflow"
		if g = ts.gates[name]; g != nil {
			return g
		}
	}
	g = &tailGate{}
	ts.gates[name] = g
	return g
}

// keep moves a finished trace into the kept LRU, merging with an existing
// entry for the same TraceID (a single-process TCP loopback finishes the
// server portion before the client root; the merge reunites them).
func (ts *TraceStore) keep(root SpanSnapshot, pt *pendingTrace, reason string) {
	ts.keptMu.Lock()
	if el, ok := ts.kept[root.TraceID]; ok {
		tr := el.Value.(*Trace)
		ts.keptBytes -= tr.bytes
		for _, s := range pt.spans {
			if len(tr.Spans) >= ts.opt.MaxSpansPerTrace {
				tr.DroppedSpans++
				continue
			}
			tr.Spans = append(tr.Spans, s)
			tr.bytes += spanBytes(s)
		}
		tr.DroppedSpans += pt.dropped
		tr.Err = tr.Err || pt.err || root.Err
		if root.Parent == 0 {
			// The true root arrived: its name/duration supersede the
			// local-root summary recorded earlier.
			tr.Root, tr.Start, tr.Dur, tr.Reason = root.Name, root.Start, root.Dur, reason
		}
		ts.keptBytes += tr.bytes
		ts.keptOrder.MoveToFront(el)
	} else {
		tr := &Trace{
			TraceID:      root.TraceID,
			Root:         root.Name,
			Start:        root.Start,
			Dur:          root.Dur,
			Err:          pt.err || root.Err,
			Reason:       reason,
			Spans:        pt.spans,
			DroppedSpans: pt.dropped,
			bytes:        pt.bytes,
		}
		ts.kept[root.TraceID] = ts.keptOrder.PushFront(tr)
		ts.keptBytes += tr.bytes
	}
	for ts.keptOrder.Len() > ts.opt.MaxTraces || (ts.keptBytes > ts.opt.MaxBytes && ts.keptOrder.Len() > 1) {
		back := ts.keptOrder.Back()
		if back == nil {
			break
		}
		tr := back.Value.(*Trace)
		ts.keptOrder.Remove(back)
		delete(ts.kept, tr.TraceID)
		ts.keptBytes -= tr.bytes
		ts.cEvicted.Inc()
	}
	ts.gKept.Set(int64(ts.keptOrder.Len()))
	ts.gKeptBytes.Set(ts.keptBytes)
	ts.keptMu.Unlock()
}

// List returns summaries of every kept trace, most recently kept first.
func (ts *TraceStore) List() []TraceSummary {
	ts.keptMu.Lock()
	out := make([]TraceSummary, 0, ts.keptOrder.Len())
	for el := ts.keptOrder.Front(); el != nil; el = el.Next() {
		tr := el.Value.(*Trace)
		out = append(out, TraceSummary{
			TraceID: tr.TraceID,
			Root:    tr.Root,
			Start:   tr.Start,
			Dur:     tr.Dur,
			Spans:   len(tr.Spans),
			Err:     tr.Err,
			Reason:  tr.Reason,
		})
	}
	ts.keptMu.Unlock()
	return out
}

// Slowest returns up to limit kept traces ordered by root duration,
// slowest first (the somatop traces panel).
func (ts *TraceStore) Slowest(limit int) []TraceSummary {
	out := ts.List()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Get returns a copy of the kept trace with the given id; ok is false when
// the trace was never kept or has been evicted. Spans are ordered by start
// time (completion order within equal starts).
func (ts *TraceStore) Get(id uint64) (Trace, bool) {
	ts.keptMu.Lock()
	el, ok := ts.kept[ID(id)]
	if !ok {
		ts.keptMu.Unlock()
		return Trace{}, false
	}
	tr := *el.Value.(*Trace)
	tr.Spans = append([]SpanSnapshot(nil), tr.Spans...)
	ts.keptMu.Unlock()
	sort.SliceStable(tr.Spans, func(i, j int) bool { return tr.Spans[i].Start.Before(tr.Spans[j].Start) })
	return tr, true
}

// TailThreshold reports the active p99 keep-threshold for a root name
// (0 while the name is still warming up). Exposed for tests and somatop.
func (ts *TraceStore) TailThreshold(rootName string) time.Duration {
	ts.gateMu.RLock()
	g := ts.gates[rootName]
	ts.gateMu.RUnlock()
	if g == nil {
		return 0
	}
	return time.Duration(g.threshold.Load())
}
