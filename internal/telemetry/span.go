package telemetry

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext is the 8-byte trace id / 8-byte span id pair that follows a
// request across component boundaries. mercury carries it in every frame
// header, so one publish can be followed client → wire → stripe append. A
// zero TraceID means "no active trace".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether tc identifies an active trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

type traceCtxKey struct{}

// ctxTrace is the context payload: the trace ids plus whether they arrived
// from another process (an RPC server rebuilding them from a frame header).
// The remote flag makes the first span started under such a context a
// *process-local root* — the span that closes this process's portion of a
// cross-process trace in the trace store (see TraceStore).
type ctxTrace struct {
	tc     TraceContext
	remote bool
}

// ContextWith returns ctx carrying tc.
func ContextWith(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, ctxTrace{tc: tc})
}

// ContextWithRemote returns ctx carrying tc received from another process
// (the mercury server loop uses this when a frame header carried trace ids).
// The first span started under the returned context is marked as this
// process's local root; contexts derived from that span (ChildSpan) clear
// the flag again.
func ContextWithRemote(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, ctxTrace{tc: tc, remote: true})
}

// FromContext extracts the active trace context, if any.
func FromContext(ctx context.Context) TraceContext {
	v, _ := ctx.Value(traceCtxKey{}).(ctxTrace)
	return v.tc
}

func fromContextFull(ctx context.Context) ctxTrace {
	v, _ := ctx.Value(traceCtxKey{}).(ctxTrace)
	return v
}

// idState seeds span/trace id generation; ids are splitmix64 outputs of an
// atomic counter, so they are unique within a process and well-mixed across
// processes started at different times.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

// NewID returns a non-zero 8-byte id.
func NewID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// ID is a trace or span id as a snapshot or answer carries it. Conduit
// carries it as the same int leaf as a uint64; JSON writes it as the 16 hex
// digits somactl prints, because a JSON number past 2^53 is misread by
// JavaScript.
type ID uint64

// MarshalText writes id as 16 lowercase hex digits.
func (id ID) MarshalText() ([]byte, error) {
	return fmt.Appendf(nil, "%016x", uint64(id)), nil
}

// UnmarshalText reads the hex form MarshalText writes.
func (id *ID) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 16, 64)
	if err != nil {
		return fmt.Errorf("telemetry: bad id %q", b)
	}
	*id = ID(v)
	return nil
}

// Span is one timed operation within a trace. End records it into the
// registry's recent-span ring (and trace store, when configured). Spans are
// handed out by StartSpan, ChildSpan and LeafSpan; a nil *Span is a valid
// no-op (End does nothing), which is how untraced hot paths skip span
// overhead entirely. End releases the span back to an internal pool: a span
// must not be touched after End.
type Span struct {
	reg    *Registry
	name   string
	tc     TraceContext
	parent uint64
	start  time.Time
	count  int64
	err    bool
	// local marks a process-local root: the first span started under a
	// trace context that arrived from another process. Its End closes this
	// process's portion of the trace in the trace store.
	local bool
}

// spanPool recycles Span structs so the traced hot path allocates nothing
// per span (the ingest overhead budget is 5%; see make telemetry-overhead).
var spanPool = sync.Pool{New: func() interface{} { return new(Span) }}

// Context returns the span's trace context (for manual propagation).
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return s.tc
}

// Fail marks the span (and therefore its trace) as failed. The trace store
// always keeps error traces, so calling Fail before End guarantees the
// trace survives sampling. No-op on a nil span.
func (s *Span) Fail() {
	if s != nil {
		s.err = true
	}
}

// SetCount attaches a unit count to the span (batch ingest records how many
// coalesced publishes a stripe append covered). Rendered by the waterfall
// view; zero means "not set". No-op on a nil span.
func (s *Span) SetCount(n int64) {
	if s != nil {
		s.count = n
	}
}

// End completes the span and records it. End on a nil or already-ended span
// is a no-op.
func (s *Span) End() {
	if s == nil || s.reg == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt is End with a caller-supplied end time, for hot paths that already
// read the clock (clock reads are not free — ~75ns on virtualized hosts, so
// sharing one read between a histogram observation and a span matters).
func (s *Span) EndAt(now time.Time) {
	if s == nil || s.reg == nil {
		return
	}
	reg := s.reg
	s.reg = nil
	snap := SpanSnapshot{
		TraceID: ID(s.tc.TraceID),
		SpanID:  ID(s.tc.SpanID),
		Parent:  ID(s.parent),
		Name:    s.name,
		Start:   s.start,
		Dur:     now.Sub(s.start),
		Count:   s.count,
		Err:     s.err,
	}
	local := s.local
	spanPool.Put(s)
	reg.spans.Load().record(snap)
	if ts := reg.traces.Load(); ts != nil {
		ts.record(snap, local)
	}
}

// StartSpan begins a span named name on the registry. When ctx already
// carries a trace, the new span is a child of it; otherwise a fresh trace is
// started. The returned context carries the new span's trace context.
func (r *Registry) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := fromContextFull(ctx)
	s := spanPool.Get().(*Span)
	s.reg, s.name, s.start = r, name, time.Now()
	s.count, s.err, s.local = 0, false, false
	if parent.tc.Valid() {
		s.tc = TraceContext{TraceID: parent.tc.TraceID, SpanID: NewID()}
		s.parent = parent.tc.SpanID
		s.local = parent.remote
	} else {
		s.tc = TraceContext{TraceID: NewID(), SpanID: NewID()}
		s.parent = 0
	}
	return ContextWith(ctx, s.tc), s
}

// ChildSpan begins a span only when ctx already carries a trace; otherwise
// it returns (ctx, nil) at the cost of a single context lookup. Hot paths
// use this so untraced operations pay nothing for tracing support.
func (r *Registry) ChildSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := r.LeafSpan(ctx, name)
	if sp == nil {
		return ctx, nil
	}
	return ContextWith(ctx, sp.tc), sp
}

// LeafSpan is ChildSpan without the derived context: for operations that
// start no spans of their own, it skips the context allocation entirely.
// Like ChildSpan it returns nil when ctx carries no active trace.
func (r *Registry) LeafSpan(ctx context.Context, name string) *Span {
	return r.LeafSpanAt(ctx, name, time.Now())
}

// LeafSpanAt is LeafSpan with a caller-supplied start time (see EndAt).
func (r *Registry) LeafSpanAt(ctx context.Context, name string, start time.Time) *Span {
	parent := fromContextFull(ctx)
	if !parent.tc.Valid() {
		return nil
	}
	s := spanPool.Get().(*Span)
	s.reg, s.name, s.start = r, name, start
	s.count, s.err = 0, false
	s.tc = TraceContext{TraceID: parent.tc.TraceID, SpanID: NewID()}
	s.parent = parent.tc.SpanID
	s.local = parent.remote
	return s
}

// StartSpan begins a span on the Default registry.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return defaultRegistry.StartSpan(ctx, name)
}

// ChildSpan begins a child span on the Default registry when ctx is traced.
func ChildSpan(ctx context.Context, name string) (context.Context, *Span) {
	return defaultRegistry.ChildSpan(ctx, name)
}

// LeafSpan begins a context-free child span on the Default registry.
func LeafSpan(ctx context.Context, name string) *Span {
	return defaultRegistry.LeafSpan(ctx, name)
}

// LeafSpanAt begins a context-free child span with a supplied start time.
func LeafSpanAt(ctx context.Context, name string, start time.Time) *Span {
	return defaultRegistry.LeafSpanAt(ctx, name, start)
}

// SpanSnapshot is one completed span. The conduit tags name its fields on the
// soma.telemetry and soma.trace.get wire, the json tags in the gateway's
// answers.
type SpanSnapshot struct {
	TraceID ID            `conduit:"trace" json:"trace_id"`
	SpanID  ID            `conduit:"span" json:"span_id"`
	Parent  ID            `conduit:"parent" json:"parent,omitempty"` // parent span id; 0 for root spans
	Name    string        `conduit:"name" json:"name"`
	Start   time.Time     `conduit:"start_ns" json:"start"`
	Dur     time.Duration `conduit:"dur_ns" json:"dur_ns"`
	Count   int64         `conduit:"count" json:"count,omitempty"` // optional unit count (batch entries); 0 = not set
	Err     bool          `conduit:"err" json:"err,omitempty"`     // the operation failed
}

// spanRingSize is the default recent-span ring capacity; Options /
// Registry.Configure resizes it. Completed spans overwrite the oldest entry,
// so tracing memory is constant regardless of traffic. The ring is sharded by span id (ids are splitmix-mixed, so the
// spread is uniform) to keep concurrent End calls off one mutex; a global
// sequence number preserves exact record order across shards.
const (
	spanRingSize = 256
	spanShards   = 4
)

type spanEntry struct {
	seq  uint64
	span SpanSnapshot
}

type spanShard struct {
	mu    sync.Mutex
	buf   []spanEntry
	next  int
	count int
}

type spanRing struct {
	seq    atomic.Uint64
	shards [spanShards]spanShard
}

// newSpanRing builds a ring holding ~capacity spans split across the shards
// (rounded up to a multiple of spanShards, minimum one per shard).
func newSpanRing(capacity int) *spanRing {
	per := (capacity + spanShards - 1) / spanShards
	if per < 1 {
		per = 1
	}
	sr := &spanRing{}
	for i := range sr.shards {
		sr.shards[i].buf = make([]spanEntry, per)
	}
	return sr
}

func (sr *spanRing) record(s SpanSnapshot) {
	seq := sr.seq.Add(1)
	sh := &sr.shards[s.SpanID%spanShards]
	sh.mu.Lock()
	sh.buf[sh.next] = spanEntry{seq: seq, span: s}
	sh.next = (sh.next + 1) % len(sh.buf)
	if sh.count < len(sh.buf) {
		sh.count++
	}
	sh.mu.Unlock()
}

// snapshot returns the retained spans in record order (oldest first).
func (sr *spanRing) snapshot() []SpanSnapshot {
	var entries []spanEntry
	for i := range sr.shards {
		sh := &sr.shards[i]
		sh.mu.Lock()
		n := len(sh.buf)
		start := (sh.next - sh.count + n) % n
		for j := 0; j < sh.count; j++ {
			entries = append(entries, sh.buf[(start+j)%n])
		}
		sh.mu.Unlock()
	}
	if len(entries) == 0 {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	out := make([]SpanSnapshot, len(entries))
	for i, e := range entries {
		out[i] = e.span
	}
	return out
}
