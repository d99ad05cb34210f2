package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// pipeHarness drives one client configuration of the publish pipeline
// against a TCP service that the scenarios stop, kill and replace.
type pipeHarness struct {
	t            *testing.T
	batch, spill bool
	addr         string
	c            *Client
}

func newPipeHarness(t *testing.T, batch, spill bool) (*pipeHarness, *Service) {
	t.Helper()
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if batch {
		c.EnableBatch(BatchConfig{MaxLeaves: 4, MaxAge: time.Millisecond})
	}
	if spill {
		c.EnableSpill(64)
	}
	return &pipeHarness{t: t, batch: batch, spill: spill, addr: addr, c: c}, svc
}

// pub publishes records seq from..to-1, alternating the two entry points,
// and returns how many calls reported success.
func (h *pipeHarness) pub(from, to int) (accepted int) {
	h.t.Helper()
	for i := from; i < to; i++ {
		n := conduit.NewNode()
		n.SetInt("pipe/seq", int64(i))
		var err error
		if i%2 == 0 {
			err = h.c.Publish(NSWorkflow, n)
		} else {
			err = h.c.PublishEncoded(NSWorkflow, n.EncodeBinary())
		}
		if err == nil {
			accepted++
		}
	}
	return accepted
}

// pubRejected publishes from..to-1 into a service that answers with a
// definitive verdict (or not at all, with spill off): unbatched, every call
// reports the failure itself; batched, the calls enqueue and Flush reports
// it once. Flush is clean again afterwards either way.
func (h *pipeHarness) pubRejected(from, to int) {
	h.t.Helper()
	accepted := h.pub(from, to)
	err := h.c.Flush()
	if h.batch {
		if accepted != to-from || err == nil {
			h.t.Fatalf("batched: %d of %d enqueues accepted, Flush = %v; want all accepted and the failure at Flush", accepted, to-from, err)
		}
	} else if accepted != 0 || err != nil {
		h.t.Fatalf("unbatched: %d of %d publishes reported success, Flush = %v; want every call to fail itself", accepted, to-from, err)
	}
	if err := h.c.Flush(); err != nil {
		h.t.Fatalf("second Flush = %v; the failure was already reported", err)
	}
}

// pubAccepted publishes from..to-1 expecting every call and the Flush after
// them to succeed (delivered, or absorbed by the spill).
func (h *pipeHarness) pubAccepted(from, to int) {
	h.t.Helper()
	if accepted := h.pub(from, to); accepted != to-from {
		h.t.Fatalf("%d of %d publishes accepted", accepted, to-from)
	}
	if err := h.c.Flush(); err != nil {
		h.t.Fatalf("flush: %v", err)
	}
}

func (h *pipeHarness) drain() {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := h.c.DrainSpill(ctx); err != nil {
		h.t.Fatalf("drain: %v", err)
	}
}

// wantSpill checks the spill statistics, which are in entries whatever the
// frames were.
func (h *pipeHarness) wantSpill(buffered int, spilled, redelivered, dropped int64) {
	h.t.Helper()
	st := h.c.Spill()
	if !h.spill {
		if st != (SpillStats{}) {
			h.t.Fatalf("spill stats with spill off = %+v", st)
		}
		return
	}
	want := SpillStats{Enabled: true, Buffered: buffered, Capacity: 64, Spilled: spilled, Redelivered: redelivered, Dropped: dropped}
	if st != want {
		h.t.Fatalf("spill stats = %+v, want %+v", st, want)
	}
	if h.c.Degraded() != (buffered > 0) {
		h.t.Fatalf("Degraded() = %v with %d entries buffered", h.c.Degraded(), buffered)
	}
}

// wantHeld checks that the services together hold exactly Published()
// records and that the last one holds seq from..to-1 in publish order. It
// reads the pending queues directly (nothing here ever folds them) so stopped
// and closed services count too.
func (h *pipeHarness) wantHeld(from, to int, svcs ...*Service) {
	h.t.Helper()
	total := 0
	var last []record
	for _, svc := range svcs {
		last = pendingRecords(svc.instances[NSWorkflow])
		total += len(last)
	}
	if got := h.c.Published(); got != int64(total) {
		h.t.Fatalf("Published() = %d, the services hold %d records", got, total)
	}
	if len(last) != to-from {
		h.t.Fatalf("service holds %d records, want seq %d..%d", len(last), from, to-1)
	}
	for i, rec := range last {
		tree, err := conduit.DecodeBinary(rec.enc)
		if err != nil {
			h.t.Fatal(err)
		}
		if v, ok := tree.Int("pipe/seq"); !ok || v != int64(from+i) {
			h.t.Fatalf("record %d has seq %d (%v), want %d: order lost", i, v, ok, from+i)
		}
	}
}

// restartAt brings a fresh service up on the harness address.
func (h *pipeHarness) restartAt() *Service {
	h.t.Helper()
	svc := NewService(ServiceConfig{})
	if _, err := svc.Listen(h.addr); err != nil {
		h.t.Fatalf("rebind %s: %v", h.addr, err)
	}
	h.t.Cleanup(func() { svc.Close() })
	return svc
}

// TestPublishPipeline runs every client configuration — {direct, batch} ×
// {spill off, on} — through a healthy service, a service restart and a
// definitive rejection, asserting publish order, Published() == records the
// services hold, the Flush error contract and spill statistics in entries.
func TestPublishPipeline(t *testing.T) {
	scenarios := map[string]func(h *pipeHarness, svc *Service){
		"healthy": func(h *pipeHarness, svc *Service) {
			h.pubAccepted(0, 20)
			h.wantHeld(0, 20, svc)
			h.wantSpill(0, 0, 0, 0)
		},
		"restart": func(h *pipeHarness, svc *Service) {
			h.pubAccepted(0, 10)
			svc.Close()
			if h.spill {
				// The outage is absorbed: every entry is buffered, in frames
				// of one (direct) or of whatever the coalescer shipped.
				h.pubAccepted(10, 20)
				h.wantSpill(10, 10, 0, 0)
			} else {
				h.pubRejected(10, 20)
			}
			svc2 := h.restartAt()
			// With spill on these race redelivery: whichever of them arrive
			// while frames are still queued must queue behind them.
			h.pubAccepted(20, 30)
			if h.spill {
				h.drain()
				h.wantHeld(10, 30, svc, svc2)
				// The outage's 10 entries plus however many of the last 10
				// queued behind them: all redelivered, none dropped.
				spilled := h.c.Spill().Spilled
				if spilled < 10 || spilled > 20 {
					h.t.Fatalf("%d entries spilled, want 10..20", spilled)
				}
				h.wantSpill(0, spilled, spilled, 0)
			} else {
				h.wantHeld(20, 30, svc, svc2)
			}
		},
		"rejection": func(h *pipeHarness, svc *Service) {
			h.pubAccepted(0, 10)
			if err := h.c.Shutdown(); err != nil { // stopped, still answering
				h.t.Fatal(err)
			}
			h.pubRejected(10, 20)
			h.wantHeld(0, 10, svc)
			h.wantSpill(0, 0, 0, 0) // a definitive verdict never spills
			if !h.spill {
				return
			}
			// The same verdict at redelivery drops the frame: spill into an
			// outage, then heal into an engine that rejects every publish.
			svc.Close()
			h.pubAccepted(20, 24)
			h.wantSpill(4, 4, 0, 0)
			eng := mercury.NewEngine()
			reject := func(context.Context, []byte) ([]byte, error) { return nil, errors.New("no") }
			eng.Register(RPCPublish, reject)
			eng.Register(RPCPublishBatch, reject)
			if _, err := eng.Listen(h.addr); err != nil {
				h.t.Fatal(err)
			}
			defer eng.Close()
			h.drain()
			h.wantSpill(0, 4, 0, 4)
			if err := h.c.Flush(); err == nil || !strings.Contains(err.Error(), "spill redelivery dropped") {
				h.t.Fatalf("Flush after a dropped redelivery = %v", err)
			}
			h.wantHeld(0, 10, svc)
		},
	}
	for _, batch := range []bool{false, true} {
		for _, spill := range []bool{false, true} {
			for name, scenario := range scenarios {
				t.Run(fmt.Sprintf("batch=%v/spill=%v/%s", batch, spill, name), func(t *testing.T) {
					h, svc := newPipeHarness(t, batch, spill)
					scenario(h, svc)
				})
			}
		}
	}
}

// recordingEngine serves soma.publish on addr, recording each envelope it
// receives; gate, when non-nil, is called with the arrival index before the
// handler answers.
func recordingEngine(t *testing.T, addr string, gate func(i int)) (frames func() [][]byte) {
	t.Helper()
	eng := mercury.NewEngine()
	var mu sync.Mutex
	var got [][]byte
	eng.Register(RPCPublish, func(_ context.Context, payload []byte) ([]byte, error) {
		mu.Lock()
		got = append(got, append([]byte(nil), payload...))
		i := len(got) - 1
		mu.Unlock()
		if gate != nil {
			gate(i)
		}
		return okFrame, nil
	})
	if _, err := eng.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), got...)
	}
}

// Regression: an overflow eviction that takes the head frame while its
// redelivery is in flight must not cost the next frame too. With capacity 2
// and A in flight, publishing B and C evicts A; when A's acknowledgement
// arrives the head is B, which was never sent and must still be delivered.
func TestSpillEvictionDuringRedeliveryKeepsNextFrame(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableSpill(2)
	svc.Close()

	pub := func(seq int64) {
		n := conduit.NewNode()
		n.SetInt("seq", seq)
		if err := c.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", seq, err)
		}
	}
	pub(0) // A: spilled, retried until the engine below is up

	entered, release := make(chan struct{}), make(chan struct{})
	frames := recordingEngine(t, addr, func(i int) {
		if i == 0 {
			close(entered)
			<-release
		}
	})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("redelivery never reached the restarted engine")
	}
	pub(1) // B: queues behind the in-flight A — the buffer is now full
	pub(2) // C: evicts A, the frame being sent
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.DrainSpill(ctx); err != nil {
		t.Fatal(err)
	}
	var seqs []int64
	for _, f := range frames() {
		env, err := conduit.DecodeBinary(f)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := env.Int("data/seq")
		seqs = append(seqs, v)
	}
	if fmt.Sprint(seqs) != "[0 1 2]" {
		t.Fatalf("engine received seq %v, want [0 1 2]: a never-sent frame was discarded", seqs)
	}
	if st := c.Spill(); st.Spilled != 3 || st.Dropped != 1 || st.Redelivered != 2 || st.Buffered != 0 {
		t.Fatalf("spill stats = %+v, want 3 spilled / 1 evicted / 2 redelivered", st)
	}
	if got := c.Published(); got != 3 {
		t.Fatalf("Published() = %d, want 3 acknowledged", got)
	}
}

// The unbatched PublishEncoded splices the caller's bytes into the envelope;
// the wire frame must be byte for byte what Publish encodes from the tree.
func TestPublishEncodedEnvelopeMatchesPublish(t *testing.T) {
	addr := fmt.Sprintf("inproc://envelope-%s", t.Name())
	frames := recordingEngine(t, addr, nil)
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := conduit.NewNode()
	n.SetFloat("PROC/cn0001/1.5/CPU Util", 42)
	n.SetIntArray("PROC/cn0001/1.5/stat", []int64{1, 2, 3})
	if err := c.PublishEncoded(NSHardware, n.EncodeBinary()); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(NSHardware, n); err != nil {
		t.Fatal(err)
	}
	got := frames()
	if len(got) != 2 || !bytes.Equal(got[0], got[1]) {
		t.Fatalf("PublishEncoded sent %x, Publish sent %x", got[0], got[1])
	}
}
