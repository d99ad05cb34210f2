package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// keepAllTraces points the Default registry at a fresh trace store that
// keeps every finished trace, so cross-process assertions are deterministic;
// the returned func restores the default-bounded store.
func keepAllTraces() func() {
	telemetry.Default().Configure(telemetry.Options{TraceStore: &telemetry.TraceStoreOptions{
		HeadSampleEvery: 1, TailMinSamples: 1 << 30,
	}})
	return func() {
		telemetry.Default().Configure(telemetry.Options{TraceStore: &telemetry.TraceStoreOptions{}})
	}
}

// TestTracePipelineCrossProcess is the end-to-end regression for the trace
// pipeline: publishes traced through somabench-load-style batching (client
// coalescer → wire → batch stripe append) must assemble into ONE connected
// trace — client-registry and server-registry spans under the same trace id —
// retrievable via soma.trace.list/get and rendered by the waterfall.
func TestTracePipelineCrossProcess(t *testing.T) {
	defer keepAllTraces()()

	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("inproc://trace-regression")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A long age bound keeps all publishes in one flush, so the run produces
	// exactly one batch trace with a known coalesced-entry count.
	c.EnableBatch(BatchConfig{MaxAge: time.Minute})

	const publishes = 5
	for i := 0; i < publishes; i++ {
		n := conduit.NewNode()
		n.SetFloat("LOAD/cn0001/load", float64(i))
		if err := c.Publish(NSHardware, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	ts := telemetry.Default().Traces()
	var batchTrace telemetry.ID
	for _, sum := range ts.List() {
		if sum.Root == "soma.client.publish.batch" {
			batchTrace = sum.TraceID
			break
		}
	}
	if batchTrace == 0 {
		t.Fatalf("no kept trace rooted at the client batch publish; kept: %+v", ts.List())
	}

	// Fetch the assembled trace back through the RPC plane, like somactl.
	tr, err := c.Trace(uint64(batchTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != "soma.client.publish.batch" {
		t.Fatalf("root = %q", tr.Root)
	}
	var ingest *telemetry.SpanSnapshot
	for i := range tr.Spans {
		if tr.Spans[i].Name == "core.stripe.append.batch" {
			ingest = &tr.Spans[i]
		}
	}
	if ingest == nil {
		t.Fatalf("trace is not connected across client and server: no stripe-append span in %+v", tr.Spans)
	}
	if ingest.TraceID != batchTrace {
		t.Fatalf("ingest span trace = %x, want %x", ingest.TraceID, batchTrace)
	}
	if ingest.Parent == 0 {
		t.Fatal("server-side span lost its client-side parent")
	}
	if ingest.Count != publishes {
		t.Fatalf("ingest span count = %d, want %d coalesced publishes", ingest.Count, publishes)
	}

	// The list RPC sees it too, and the waterfall renders every span.
	sums, err := c.Traces(10, true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sums {
		if s.TraceID == batchTrace {
			found = true
		}
	}
	if !found {
		t.Fatalf("soma.trace.list does not include %x", batchTrace)
	}
	var sb strings.Builder
	RenderTraceWaterfall(&sb, tr, 0)
	if !strings.Contains(sb.String(), "core.stripe.append.batch") || !strings.Contains(sb.String(), "x5") {
		t.Fatalf("waterfall missing the ingest row:\n%s", sb.String())
	}
}

func TestTraceGetNotFound(t *testing.T) {
	defer keepAllTraces()()
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("inproc://trace-notfound")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Trace(0xdeadbeef); !errors.Is(err, ErrTraceNotFound) {
		t.Fatalf("err = %v, want ErrTraceNotFound", err)
	}
}

func TestTraceCodecRoundTrip(t *testing.T) {
	base := time.Unix(0, 1_000_000_000)
	tr := telemetry.Trace{
		TraceID: 0xab12, Root: "op", Start: base, Dur: 4 * time.Millisecond,
		Err: true, Reason: telemetry.KeepError, DroppedSpans: 3,
		Spans: []telemetry.SpanSnapshot{
			{TraceID: 0xab12, SpanID: 1, Name: "op", Start: base, Dur: 4 * time.Millisecond, Err: true},
			{TraceID: 0xab12, SpanID: 2, Parent: 1, Name: "child", Start: base.Add(time.Millisecond), Dur: time.Millisecond, Count: 42},
		},
	}
	var dec telemetry.Trace
	if err := conduit.Unmarshal(mustReencode(t, conduit.Marshal(tr)), &dec); err != nil {
		t.Fatal(err)
	}
	if dec.TraceID != tr.TraceID || dec.Root != tr.Root || dec.Dur != tr.Dur ||
		!dec.Err || dec.Reason != tr.Reason || dec.DroppedSpans != 3 {
		t.Fatalf("trace header mismatch: %+v", dec)
	}
	if len(dec.Spans) != 2 {
		t.Fatalf("spans = %d", len(dec.Spans))
	}
	if dec.Spans[1].Count != 42 || dec.Spans[1].Parent != 1 || !dec.Spans[0].Err {
		t.Fatalf("span fields lost: %+v", dec.Spans)
	}

	sums := []telemetry.TraceSummary{
		{TraceID: 0xab12, Root: "op", Start: base, Dur: time.Millisecond, Spans: 2, Err: true, Reason: telemetry.KeepError},
	}
	var got []telemetry.TraceSummary
	if err := conduit.Unmarshal(mustReencode(t, conduit.Marshal(sums)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != sums[0] {
		t.Fatalf("summary round trip: %+v", got)
	}
}

// mustReencode round-trips a node through its wire encoding, the way the RPC
// plane does.
func mustReencode(t *testing.T, n *conduit.Node) *conduit.Node {
	t.Helper()
	out, err := conduit.DecodeBinary(n.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRenderTraceWaterfallGolden(t *testing.T) {
	base := time.Unix(0, 1_000_000_000)
	tr := telemetry.Trace{
		TraceID: 0xab, Root: "soma.client.publish.batch",
		Start: base, Dur: 4 * time.Millisecond, Reason: telemetry.KeepTail,
		Spans: []telemetry.SpanSnapshot{
			{TraceID: 0xab, SpanID: 1, Name: "soma.client.publish.batch", Start: base, Dur: 4 * time.Millisecond},
			{TraceID: 0xab, SpanID: 2, Parent: 1, Name: "mercury.client.call", Start: base.Add(time.Millisecond), Dur: 2 * time.Millisecond},
			{TraceID: 0xab, SpanID: 3, Parent: 2, Name: "core.stripe.append.batch", Start: base.Add(2 * time.Millisecond), Dur: time.Millisecond, Count: 128},
		},
	}
	var sb strings.Builder
	RenderTraceWaterfall(&sb, tr, 24)
	want := `trace 00000000000000ab  root=soma.client.publish.batch  dur=4ms  spans=3  kept=tail
  soma.client.publish.batch             4ms  [########################]
    mercury.client.call                 2ms  [      ############      ]
      core.stripe.append.batch          1ms  [            ######      ] x128
`
	if got := sb.String(); got != want {
		t.Errorf("waterfall mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderTraceWaterfallError(t *testing.T) {
	base := time.Unix(0, 1_000_000_000)
	tr := telemetry.Trace{
		TraceID: 0xcd, Root: "soma.client.publish", Start: base, Dur: time.Millisecond,
		Err: true, Reason: telemetry.KeepError, DroppedSpans: 2,
		Spans: []telemetry.SpanSnapshot{
			{TraceID: 0xcd, SpanID: 1, Name: "soma.client.publish", Start: base, Dur: time.Millisecond, Err: true},
		},
	}
	var sb strings.Builder
	RenderTraceWaterfall(&sb, tr, 24)
	got := sb.String()
	if !strings.Contains(got, "kept=error  ERR") {
		t.Errorf("error trace not flagged in header:\n%s", got)
	}
	if !strings.Contains(got, "(2 more spans dropped by the per-trace cap)") {
		t.Errorf("dropped-span note missing:\n%s", got)
	}
	if !strings.Contains(got, "] ERR") {
		t.Errorf("failed span row not flagged:\n%s", got)
	}
}

func TestRenderTraceListEmpty(t *testing.T) {
	var sb strings.Builder
	RenderTraceList(&sb, nil)
	if got := sb.String(); got != "traces:    (none kept)\n" {
		t.Errorf("empty list = %q", got)
	}
}

func TestProfileRPC(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("inproc://profile-rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Snapshot profiles return immediately with a gzipped pprof protobuf.
	p, err := c.Profile("goroutine", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) < 2 || p.Data[0] != 0x1f || p.Data[1] != 0x8b {
		t.Fatalf("profile bytes are not gzip-framed pprof: % x...", p.Data[:min(8, len(p.Data))])
	}
	if p.Kind != "goroutine" {
		t.Fatalf("kind = %q", p.Kind)
	}

	// A short CPU capture samples for the requested window.
	p, err = c.Profile("cpu", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) < 2 || p.Data[0] != 0x1f || p.Data[1] != 0x8b {
		t.Fatal("cpu profile bytes are not gzip-framed pprof")
	}
	if p.Duration < 40*time.Millisecond {
		t.Fatalf("cpu capture window = %v, want ~50ms", p.Duration)
	}

	if _, err := c.Profile("bogus", 0); err == nil {
		t.Fatal("bogus profile kind accepted")
	}
}

func TestProfileBusyGate(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("inproc://profile-busy")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	svc.profileBusy.Store(true)
	if _, err := c.Profile("goroutine", 0); err == nil || !strings.Contains(err.Error(), "already in progress") {
		t.Fatalf("concurrent capture err = %v, want busy rejection", err)
	}
	svc.profileBusy.Store(false)
	if _, err := c.Profile("goroutine", 0); err != nil {
		t.Fatalf("capture after gate release failed: %v", err)
	}
}

// TestProfileNotRetried pins the satellite fix: soma.profile must never ride
// in an idempotent set, so CallPolicy retries cannot double-start a capture.
func TestProfileNotRetried(t *testing.T) {
	for _, name := range IdempotentRPCs() {
		if name == RPCProfile {
			t.Fatal("soma.profile listed as idempotent")
		}
	}
	// The read-only surface, by contrast, is present.
	found := map[string]bool{}
	for _, name := range IdempotentRPCs() {
		found[name] = true
	}
	for _, want := range []string{RPCTraceList, RPCTraceGet, RPCTelemetry, RPCQuery} {
		if !found[want] {
			t.Fatalf("%s missing from the idempotent read surface", want)
		}
	}
}

// BenchmarkTraceTailSampler is the sampler hot path in isolation: start and
// end a root span per op against a registry with a default-bounded trace
// store, so the cost of trace assembly + the cached-threshold tail decision
// shows up as ns/op (scripts/bench_baseline.json gates its growth).
func BenchmarkTraceTailSampler(b *testing.B) {
	reg := telemetry.NewRegistry()
	reg.Configure(telemetry.Options{TraceStore: &telemetry.TraceStoreOptions{}})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_, sp := reg.StartSpan(context.Background(), "bench.sampled.op")
			sp.End()
		}
	})
}
