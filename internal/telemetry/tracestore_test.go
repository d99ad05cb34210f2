package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// storeRegistry builds a registry with a trace store configured from opts.
func storeRegistry(opts TraceStoreOptions) *Registry {
	r := NewRegistry()
	r.Configure(Options{TraceStore: &opts})
	return r
}

// endAfter completes sp as if it had run for d.
func endAfter(sp *Span, d time.Duration) {
	sp.EndAt(sp.start.Add(d))
}

func TestTraceStoreKeepsErrorTraces(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{HeadSampleEvery: -1})
	ctx, root := r.StartSpan(context.Background(), "op")
	child := r.LeafSpan(ctx, "op.child")
	child.Fail()
	endAfter(child, time.Millisecond)
	endAfter(root, 2*time.Millisecond)

	ts := r.Traces()
	tr, ok := ts.Get(root.Context().TraceID)
	if !ok {
		t.Fatal("error trace was not kept")
	}
	if tr.Reason != KeepError || !tr.Err {
		t.Fatalf("reason = %q err = %v, want error/true", tr.Reason, tr.Err)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(tr.Spans))
	}
	if tr.Root != "op" {
		t.Fatalf("root = %q, want op", tr.Root)
	}
}

func TestTraceStoreDropsUnremarkable(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{HeadSampleEvery: -1})
	_, root := r.StartSpan(context.Background(), "op")
	id := root.Context().TraceID
	endAfter(root, time.Millisecond)
	if _, ok := r.Traces().Get(id); ok {
		t.Fatal("unremarkable trace kept with head sampling disabled")
	}
	if got := r.Counter("telemetry.traces.dropped").Value(); got != 1 {
		t.Fatalf("dropped counter = %d, want 1", got)
	}
}

func TestTraceStoreTailSampling(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{HeadSampleEvery: -1, TailMinSamples: 32})
	ts := r.Traces()
	// Warm up the root name's distribution with fast traces.
	for i := 0; i < 100; i++ {
		_, root := r.StartSpan(context.Background(), "op")
		endAfter(root, time.Millisecond)
	}
	if thr := ts.TailThreshold("op"); thr == 0 || thr > 10*time.Millisecond {
		t.Fatalf("tail threshold = %v, want warmed up around ~1-2ms", thr)
	}
	// A >p99 trace must be kept.
	_, slow := r.StartSpan(context.Background(), "op")
	slowID := slow.Context().TraceID
	endAfter(slow, 50*time.Millisecond)
	tr, ok := ts.Get(slowID)
	if !ok {
		t.Fatal(">p99 trace was not kept")
	}
	if tr.Reason != KeepTail {
		t.Fatalf("reason = %q, want tail", tr.Reason)
	}
	if tr.Dur != 50*time.Millisecond {
		t.Fatalf("kept dur = %v, want 50ms", tr.Dur)
	}
}

func TestTraceStoreHeadSampling(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{HeadSampleEvery: 4, TailMinSamples: 1 << 30})
	for i := 0; i < 40; i++ {
		_, root := r.StartSpan(context.Background(), "op")
		endAfter(root, time.Millisecond)
	}
	kept := len(r.Traces().List())
	if kept != 10 {
		t.Fatalf("head sampling kept %d of 40, want 10 (1 in 4)", kept)
	}
}

func TestTraceStoreLRUBounds(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{MaxTraces: 4, HeadSampleEvery: 1, TailMinSamples: 1 << 30})
	ts := r.Traces()
	var last uint64
	for i := 0; i < 20; i++ {
		_, root := r.StartSpan(context.Background(), "op")
		last = root.Context().TraceID
		endAfter(root, time.Millisecond)
	}
	if got := len(ts.List()); got != 4 {
		t.Fatalf("kept %d traces, want 4 (MaxTraces)", got)
	}
	if _, ok := ts.Get(last); !ok {
		t.Fatal("most recent trace was evicted instead of the oldest")
	}
	if got := r.Counter("telemetry.traces.evicted").Value(); got != 16 {
		t.Fatalf("evicted counter = %d, want 16", got)
	}
}

func TestTraceStoreByteBudget(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{MaxBytes: 512, HeadSampleEvery: 1, TailMinSamples: 1 << 30})
	for i := 0; i < 50; i++ {
		ctx, root := r.StartSpan(context.Background(), "a-root-span-with-a-long-name")
		for j := 0; j < 3; j++ {
			endAfter(r.LeafSpan(ctx, "child"), time.Microsecond)
		}
		endAfter(root, time.Millisecond)
	}
	if got := r.Gauge("telemetry.traces.kept_bytes").Value(); got > 512 {
		t.Fatalf("kept bytes = %d, exceeds 512 budget", got)
	}
	if got := len(r.Traces().List()); got < 1 {
		t.Fatalf("kept %d traces, want at least the newest", got)
	}
}

func TestTraceStoreRemoteLocalRoot(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{HeadSampleEvery: 1, TailMinSamples: 1 << 30})
	// A server receives trace ids over the wire: its handler span is a
	// process-local root and closes this process's trace portion.
	wire := TraceContext{TraceID: NewID(), SpanID: NewID()}
	ctx := ContextWithRemote(context.Background(), wire)
	hctx, handler := r.ChildSpan(ctx, "soma.publish.handler")
	endAfter(r.LeafSpan(hctx, "core.stripe.append"), 100*time.Microsecond)
	endAfter(handler, time.Millisecond)

	tr, ok := r.Traces().Get(wire.TraceID)
	if !ok {
		t.Fatal("server-side trace portion was not finalized by its local root")
	}
	if tr.Root != "soma.publish.handler" {
		t.Fatalf("local root = %q, want soma.publish.handler", tr.Root)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(tr.Spans))
	}
	// Children of the handler must not have re-finalized the trace.
	if got := r.Counter("telemetry.traces.pending.dropped").Value(); got != 0 {
		t.Fatalf("pending.dropped = %d, want 0", got)
	}
}

func TestTraceStorePendingBound(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{MaxPending: 8, HeadSampleEvery: -1})
	// Orphan child spans whose roots never end pile up in pending.
	for i := 0; i < 100; i++ {
		ctx := ContextWith(context.Background(), TraceContext{TraceID: NewID(), SpanID: NewID()})
		endAfter(r.LeafSpan(ctx, "orphan"), time.Microsecond)
	}
	// Eviction is shard-local, so the bound is approximate within one
	// entry per shard of slack.
	if got := r.Gauge("telemetry.traces.pending").Value(); got > 8+traceShards {
		t.Fatalf("pending = %d, exceeds MaxPending 8 (+ shard slack)", got)
	}
	if got := r.Counter("telemetry.traces.pending.dropped").Value(); got == 0 {
		t.Fatal("pending eviction never fired")
	}
}

func TestTraceStoreSpanCap(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{MaxSpansPerTrace: 4, HeadSampleEvery: 1, TailMinSamples: 1 << 30})
	ctx, root := r.StartSpan(context.Background(), "op")
	for i := 0; i < 10; i++ {
		endAfter(r.LeafSpan(ctx, "child"), time.Microsecond)
	}
	endAfter(root, time.Millisecond)
	tr, ok := r.Traces().Get(root.Context().TraceID)
	if !ok {
		t.Fatal("trace not kept")
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4 (cap)", len(tr.Spans))
	}
	if tr.DroppedSpans != 7 {
		t.Fatalf("dropped %d spans, want 7", tr.DroppedSpans)
	}
}

// TestTraceStoreConcurrent exercises span End, trace assembly, sampling and
// LRU eviction from many goroutines at once; run with -race.
func TestTraceStoreConcurrent(t *testing.T) {
	r := storeRegistry(TraceStoreOptions{
		MaxTraces: 8, MaxBytes: 8 << 10, MaxPending: 64,
		HeadSampleEvery: 2, TailMinSamples: 16,
	})
	ts := r.Traces()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ctx, root := r.StartSpan(context.Background(), "op")
				cctx, child := r.ChildSpan(ctx, "child")
				leaf := r.LeafSpan(cctx, "leaf")
				if i%7 == 0 {
					leaf.Fail()
				}
				leaf.End()
				child.End()
				root.End()
				if i%50 == 0 {
					for _, sum := range ts.List() {
						ts.Get(uint64(sum.TraceID))
					}
					ts.Slowest(4)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(ts.List()); got > 8 {
		t.Fatalf("kept %d traces, exceeds MaxTraces 8", got)
	}
	if got := r.Gauge("telemetry.traces.pending").Value(); got != 0 {
		t.Fatalf("pending = %d after all traces finished, want 0", got)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Microsecond) // untraced: no exemplar
	h.ObserveTrace(time.Millisecond, 0xabcd)
	snap := h.Snapshot()
	if len(snap.Exemplars) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(snap.Exemplars))
	}
	ex := snap.Exemplars[0]
	if ex.TraceID != 0xabcd {
		t.Fatalf("exemplar trace = %x, want abcd", ex.TraceID)
	}
	if ex.Ceil < time.Millisecond || ex.Ceil > 2*time.Millisecond {
		t.Fatalf("exemplar ceiling = %v, want (1ms, 2ms]", ex.Ceil)
	}
	// A later traced observation in the same bucket replaces the exemplar.
	h.ObserveTrace(1040*time.Microsecond, 0xef01)
	if got := h.Snapshot().Exemplars[0].TraceID; got != 0xef01 {
		t.Fatalf("exemplar trace = %x, want ef01 (most recent)", got)
	}
}

func TestSpanRingConfigurableCapacity(t *testing.T) {
	r := NewRegistry()
	r.Configure(Options{SpanRingCapacity: 64})
	for i := 0; i < 1000; i++ {
		_, sp := r.StartSpan(context.Background(), "s")
		sp.End()
	}
	if got := len(r.Snapshot().Spans); got != 64 {
		t.Fatalf("ring holds %d spans, want 64", got)
	}
}

func TestPromExemplarExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("core.publish.latency").ObserveTrace(time.Millisecond, 0x1234)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# EXEMPLAR gosoma_core_publish_latency_seconds{le="0.001048576"} trace_id="0000000000001234"`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition missing exemplar line %q:\n%s", want, sb.String())
	}
}
