package core

import (
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

func TestTelemetryEncodeDecodeRoundTrip(t *testing.T) {
	snap := &telemetry.Snapshot{
		Counters: map[string]int64{"mercury.calls_served": 12},
		Gauges:   map[string]float64{"zmq.queue.sched.depth": 3},
		Histograms: map[string]telemetry.HistogramSnapshot{
			"mercury.server.latency.soma.publish": {
				Count: 7, Sum: 70 * time.Microsecond, Max: 30 * time.Microsecond,
				P50: 8 * time.Microsecond, P95: 25 * time.Microsecond, P99: 29 * time.Microsecond,
			},
		},
		Spans: []telemetry.SpanSnapshot{
			{TraceID: 0xdeadbeef, SpanID: 0x1234, Name: "soma.client.publish",
				Start: time.Unix(0, 1700000000_000000000), Dur: 42 * time.Microsecond},
			{TraceID: 0xdeadbeef, SpanID: 0x5678, Parent: 0x1234, Name: "core.stripe.append",
				Start: time.Unix(0, 1700000000_000001000), Dur: 3 * time.Microsecond},
		},
	}
	var got telemetry.Snapshot
	if err := conduit.Unmarshal(mustReencode(t, conduit.Marshal(snap)), &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters["mercury.calls_served"] != 12 {
		t.Errorf("counter lost: %+v", got.Counters)
	}
	if got.Gauges["zmq.queue.sched.depth"] != 3 {
		t.Errorf("gauge lost: %+v", got.Gauges)
	}
	h := got.Histograms["mercury.server.latency.soma.publish"]
	if h.Count != 7 || h.P95 != 25*time.Microsecond || h.Max != 30*time.Microsecond {
		t.Errorf("histogram mangled: %+v", h)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(got.Spans))
	}
	child := got.Spans[1]
	if child.TraceID != 0xdeadbeef || child.Parent != 0x1234 || child.Name != "core.stripe.append" {
		t.Errorf("child span mangled: %+v", child)
	}
	if child.Dur != 3*time.Microsecond || child.Start.UnixNano() != 1700000000_000001000 {
		t.Errorf("child span timing mangled: %+v", child)
	}
}

// TestTelemetryRPC drives a publish through the client stub and asserts the
// soma.telemetry RPC reports the per-handler latency histograms and a
// client → handler → stripe-append span chain.
func TestTelemetryRPC(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("inproc://telemetry-rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n := conduit.NewNode()
	n.SetFloat("PROC/cn01/1.0/CPU Util", 55)
	if err := c.Publish(NSHardware, n); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	h, ok := snap.Histograms["mercury.server.latency."+RPCPublish]
	if !ok || h.Count == 0 {
		t.Errorf("no server-side publish latency recorded: %+v", snap.Histograms)
	}
	if _, ok := snap.Histograms["core.publish.latency"]; !ok {
		t.Errorf("no core publish latency histogram: %v", telemetry.SortedNames(snap.Histograms))
	}
	// The publish trace must appear as a parent/child chain in the span
	// ring: soma.client.publish → soma.publish.handler → core.stripe.append.
	byName := map[string]telemetry.SpanSnapshot{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	root, okRoot := byName["soma.client.publish"]
	handler, okHandler := byName["soma.publish.handler"]
	append_, okAppend := byName["core.stripe.append"]
	if !okRoot || !okHandler || !okAppend {
		t.Fatalf("span chain incomplete; have %v", telemetry.SortedNames(byName))
	}
	if handler.TraceID != root.TraceID || append_.TraceID != root.TraceID {
		t.Error("spans do not share the publish trace id")
	}
	if handler.Parent != root.SpanID {
		t.Error("handler span is not a child of the client span")
	}
	if append_.Parent != handler.SpanID {
		t.Error("stripe append span is not a child of the handler span")
	}
}
