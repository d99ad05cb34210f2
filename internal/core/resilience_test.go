package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/faults"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// A spill-enabled client must absorb publishes across a service restart and
// redeliver every one of them once the service is back.
func TestSpillRidesOutServiceRestart(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableSpill(64)

	pub := func(path string, v float64) {
		n := conduit.NewNode()
		n.SetFloat(path, v)
		if err := client.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %s: %v", path, err)
		}
	}
	pub("before/outage", 1)

	svc.Close()
	// These publishes hit a dead service: the client degrades instead of
	// erroring, and buffers them for redelivery.
	pub("during/outage/a", 2)
	pub("during/outage/b", 3)
	if !client.Degraded() {
		t.Fatal("client not degraded while the service is down")
	}
	if st := client.Spill(); st.Buffered != 2 || st.Spilled != 2 {
		t.Fatalf("spill stats = %+v, want 2 buffered / 2 spilled", st)
	}

	svc2 := NewService(ServiceConfig{})
	if _, err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer svc2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := client.DrainSpill(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if client.Degraded() {
		t.Fatal("client still degraded after drain")
	}
	st := client.Spill()
	if st.Redelivered != 2 || st.Dropped != 0 {
		t.Fatalf("spill stats after drain = %+v, want 2 redelivered / 0 dropped", st)
	}
	// The buffered publishes made it into the restarted service's tree.
	tree, err := svc2.Query(NSWorkflow, "during/outage")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Float("a"); !ok || v != 2 {
		t.Fatalf("redelivered leaf a = %v (%v)", v, ok)
	}
	if v, ok := tree.Float("b"); !ok || v != 3 {
		t.Fatalf("redelivered leaf b = %v (%v)", v, ok)
	}
}

// A publish the service ingested but whose acknowledgement arrived corrupt
// failed on the transport, not at the service: a spill-enabled client must
// buffer it and redeliver it, not drop it as a definitive failure.
func TestSpillRedeliversCorruptedAck(t *testing.T) {
	tr := faults.New(faults.Config{Seed: 1, CorruptProb: 1, Budget: 1})
	svc := NewService(ServiceConfig{EngineOptions: []mercury.Option{mercury.WithInjector(tr)}})
	defer svc.Close()
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableSpill(8)

	n := conduit.NewNode()
	n.SetFloat("corrupt/ack", 7)
	if err := client.Publish(NSWorkflow, n); err != nil {
		t.Fatalf("publish with a corrupted acknowledgement: %v", err)
	}
	if c := tr.Stats().Corrupts; c != 1 {
		t.Fatalf("faults injected %d corruptions, want 1", c)
	}
	if st := client.Spill(); st.Spilled != 1 {
		t.Fatalf("spill stats = %+v, want the publish spilled", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := client.DrainSpill(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := client.Spill(); st.Redelivered != 1 || st.Dropped != 0 {
		t.Fatalf("spill stats after drain = %+v, want 1 redelivered / 0 dropped", st)
	}
	tree, err := svc.Query(NSWorkflow, "corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Float("ack"); !ok || v != 7 {
		t.Fatalf("leaf ack = %v (%v), want 7", v, ok)
	}
}

// A spill queue over capacity evicts whole frames oldest first (newer
// monitoring data wins), never the frame just added. Capacity and statistics
// are in entries: unbatched a frame is one entry and eviction is exact;
// batched it is as coarse as the frames the coalescer shipped.
func TestSpillOverflowDropsOldest(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		batchLeaves                int // 0 = unbatched
		capacity, publishes        int
		buffered, spilled, dropped int
	}{
		{"direct", 0, 2, 3, 2, 3, 1},
		{"batch evicts a whole frame", 4, 6, 8, 4, 8, 4},
		{"batch keeps a lone frame over capacity", 4, 2, 4, 4, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(ServiceConfig{})
			addr, err := svc.Listen("tcp://127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			client, err := Connect(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if tc.batchLeaves > 0 {
				client.EnableBatch(BatchConfig{MaxLeaves: tc.batchLeaves, MaxAge: time.Hour})
			}
			client.EnableSpill(tc.capacity)
			svc.Close()

			for i := 0; i < tc.publishes; i++ {
				n := conduit.NewNode()
				n.SetInt("leaf", int64(i))
				if err := client.Publish(NSWorkflow, n); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
				if tc.batchLeaves > 0 && (i+1)%tc.batchLeaves == 0 {
					if err := client.Flush(); err != nil { // ship exactly one full frame
						t.Fatalf("flush after %d: %v", i, err)
					}
				}
			}
			st := client.Spill()
			if st.Buffered != tc.buffered || st.Spilled != int64(tc.spilled) || st.Dropped != int64(tc.dropped) {
				t.Fatalf("spill stats = %+v, want buffered=%d spilled=%d dropped=%d", st, tc.buffered, tc.spilled, tc.dropped)
			}
		})
	}
}

// soma.health must report service liveness and keep serving the client-side
// half when the service is gone.
func TestHealthReport(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableSpill(8)

	n := conduit.NewNode()
	n.SetFloat("x", 1)
	if err := client.Publish(NSWorkflow, n); err != nil {
		t.Fatal(err)
	}

	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q, want ok", h.Status)
	}
	if h.Publishes != 1 {
		t.Fatalf("publishes = %d, want 1", h.Publishes)
	}
	if h.UptimeSec < 0 {
		t.Fatalf("uptime = %v", h.UptimeSec)
	}
	if h.Breaker != "disabled" {
		t.Fatalf("breaker = %q, want disabled under the default policy", h.Breaker)
	}
	if !h.Spill.Enabled || h.Degraded {
		t.Fatalf("spill half wrong: %+v", h)
	}

	// A shut-down (but still listening) service reports "stopped".
	if err := client.Shutdown(); err != nil {
		t.Fatal(err)
	}
	h, err = client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "stopped" {
		t.Fatalf("status = %q, want stopped", h.Status)
	}

	// A dead service still yields the local half, marked unreachable.
	svc.Close()
	h, err = client.Health()
	if err == nil {
		t.Fatal("health against a closed service reported no error")
	}
	if h.Status != "unreachable" || h.Err == "" {
		t.Fatalf("report = %+v, want unreachable with an error", h)
	}
	if h.Breaker == "" || !h.Spill.Enabled {
		t.Fatalf("local half missing from unreachable report: %+v", h)
	}

	var sb strings.Builder
	RenderHealth(&sb, h)
	if !strings.Contains(sb.String(), "unreachable") {
		t.Fatalf("rendered health missing status: %q", sb.String())
	}
}

// TestHealthFoldsNothing: soma.health sums the stripes' publish counters, so a
// liveness probe with records pending leaves every instance's snapshot as it
// was — no fold, no leaf walk — and still reports every publish.
func TestHealthFoldsNothing(t *testing.T) {
	svc := NewService(ServiceConfig{})
	defer svc.Close()
	for i, ns := range Namespaces {
		for j := 0; j <= i; j++ {
			n := conduit.NewNode()
			n.SetFloat(fmt.Sprintf("PROC/cn%02d/load", j), float64(j))
			if err := svc.Publish(ns, n, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := map[Namespace]*snapshot{}
	for _, ns := range Namespaces {
		before[ns] = svc.instances[ns].snap.Load()
	}
	frame, err := svc.handleHealth(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var h HealthReport
	if err := unmarshalFrame(frame, &h); err != nil {
		t.Fatal(err)
	}
	if h.Publishes != 10 { // 1+2+3+4 over the four namespaces
		t.Fatalf("health publishes = %d, want 10", h.Publishes)
	}
	for _, ns := range Namespaces {
		if svc.instances[ns].snap.Load() != before[ns] {
			t.Errorf("%s: soma.health rebuilt the snapshot", ns)
		}
	}
	// The records were pending: soma.stats counts leaves, and folds them.
	svc.Stats()
	for _, ns := range Namespaces {
		if svc.instances[ns].snap.Load() == before[ns] {
			t.Errorf("%s: no record was pending, so the check above proves nothing", ns)
		}
	}
}
