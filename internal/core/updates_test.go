package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// The update stream at the level of its three RPC rows: what a remote
// subscriber sees of the service's update log, driven through the client's
// own stream helpers over a bare endpoint.

// streamService boots a service at scheme ("inproc" picks a per-test address)
// and closes it with the test.
func streamService(t *testing.T, scheme string) (*Service, string) {
	t.Helper()
	if scheme == "inproc" {
		scheme = "inproc://updates-" + t.Name()
	}
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen(scheme)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, addr
}

// dialEndpoint looks addr up over a fresh endpoint, released with the test.
func dialEndpoint(t *testing.T, addr string) *mercury.Endpoint {
	t.Helper()
	ep, err := mercury.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// dialStream subscribes to prefix over a fresh endpoint, released with the test.
func dialStream(t *testing.T, addr, prefix string) stream {
	t.Helper()
	st, err := openStream(dialEndpoint(t, addr), prefix)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// recvUpdates is one long-poll, decoded.
func recvUpdates(st stream, max int, wait time.Duration) (ups []Update, dropped int64, closed bool, err error) {
	frame, err := st.recv(context.Background(), max, wait)
	if err != nil {
		return nil, 0, false, err
	}
	return decodeUpdates(frame)
}

// seqTree is a one-leaf publish carrying i.
func seqTree(i int) *conduit.Node {
	n := conduit.NewNode()
	n.SetInt("SEQ/cn01/v", int64(i))
	return n
}

func TestUpdatesDeliveryInOrderTCP(t *testing.T) {
	svc, addr := streamService(t, "tcp://127.0.0.1:0")
	st := dialStream(t, addr, "ns/hardware/")

	// Prefix filtering happens server-side: only ns/hardware/ topics arrive.
	const n = 20
	for i := 0; i < n; i++ {
		if err := svc.Publish(NSHardware, seqTree(i), 0); err != nil {
			t.Fatal(err)
		}
		if err := svc.Publish(NSWorkflow, seqTree(1000+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []Update
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n && time.Now().Before(deadline) {
		ups, dropped, closed, err := recvUpdates(st, 8, 200*time.Millisecond)
		if err != nil || dropped != 0 || closed {
			t.Fatalf("recv = dropped %d, closed %v, %v", dropped, closed, err)
		}
		if len(ups) > 8 {
			t.Fatalf("recv of max 8 answered %d updates", len(ups))
		}
		got = append(got, ups...)
	}
	if len(got) != n {
		t.Fatalf("received %d updates, want %d (ns/hardware/ only)", len(got), n)
	}
	for i, u := range got {
		if v, ok := u.Tree.Int("SEQ/cn01/v"); !ok || v != int64(i) || u.NS != NSHardware || u.Alert {
			t.Fatalf("update %d = %+v carrying %d (%v), want hardware publish %d", i, u, v, ok, i)
		}
	}
}

func TestUpdatesRecvWakesOnPublish(t *testing.T) {
	// Push semantics: a parked recv returns as soon as a publish lands, well
	// before its wait window elapses.
	svc, addr := streamService(t, "inproc")
	st := dialStream(t, addr, "ns/")
	go func() {
		time.Sleep(50 * time.Millisecond)
		svc.Publish(NSHardware, seqTree(42), 0)
	}()
	start := time.Now()
	ups, _, _, err := recvUpdates(st, 1, 10*time.Second)
	if err != nil || len(ups) != 1 {
		t.Fatalf("recv = %d updates, %v", len(ups), err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("recv took %s; long-poll did not wake on publish", elapsed)
	}
}

// cursorCount is how many subscriptions svc's update log holds.
func cursorCount(svc *Service) int {
	svc.updates.mu.Lock()
	defer svc.updates.mu.Unlock()
	return len(svc.updates.cursors)
}

func TestUpdatesByteBudgetDrops(t *testing.T) {
	// A slow remote consumer loses the oldest updates to the log's byte
	// budget, and the reported drop count plus delivered count is exactly
	// what was published.
	const kept, published = 4, 20
	svc, addr := streamService(t, "inproc")
	svc.updates.budget = kept * (entryBytes + len(seqTree(0).EncodeBinary()))
	counted := telSubDropped.Value()
	st := dialStream(t, addr, "ns/")
	for i := 0; i < published; i++ {
		svc.Publish(NSHardware, seqTree(i), 0)
	}
	var got []int64
	var dropped int64
	for {
		ups, d, _, err := recvUpdates(st, 64, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		dropped = d
		if len(ups) == 0 {
			break
		}
		for _, u := range ups {
			v, _ := u.Tree.Int("SEQ/cn01/v")
			got = append(got, v)
		}
	}
	if len(got) != kept || got[0] != published-kept {
		t.Fatalf("received %v, want the newest %d", got, kept)
	}
	if dropped != published-kept {
		t.Fatalf("dropped = %d, want %d", dropped, published-kept)
	}
	// The service's own counter agrees with what the subscriber was told.
	if n := telSubDropped.Value() - counted; n != dropped {
		t.Fatalf("core.subscribe.dropped moved by %d, subscriber saw %d", n, dropped)
	}
}

func TestUpdatesUnsubAndResubscribe(t *testing.T) {
	// A subscriber that goes away (unsub) is removed from the log; a new dial
	// re-establishes delivery with fresh drop accounting.
	svc, addr := streamService(t, "tcp://127.0.0.1:0")
	st1 := dialStream(t, addr, "ns/")
	if n := cursorCount(svc); n != 1 {
		t.Fatalf("subscribers after sub = %d", n)
	}
	st1.unsub()
	if n := cursorCount(svc); n != 0 {
		t.Fatalf("subscribers after unsub = %d; the service kept a dead subscriber", n)
	}
	// Receiving on the released id fails rather than hanging.
	if _, _, _, err := recvUpdates(st1, 1, 10*time.Millisecond); err == nil {
		t.Fatal("recv on an unsubscribed id succeeded")
	}

	st2 := dialStream(t, addr, "ns/")
	svc.Publish(NSHardware, seqTree(7), 0)
	ups, dropped, _, err := recvUpdates(st2, 8, 2*time.Second)
	if err != nil || len(ups) != 1 {
		t.Fatalf("recv after resubscribe = %d updates, %v", len(ups), err)
	}
	if dropped != 0 {
		t.Fatalf("fresh subscription reports %d drops", dropped)
	}
}

func TestLeaseExpiry(t *testing.T) {
	// A subscriber that stops polling (crashed without unsub) is reclaimed
	// after the lease expiry; the sweep runs on other stream traffic so no
	// janitor goroutine is involved.
	svc, addr := streamService(t, "inproc")
	svc.updates.expiry = 20 * time.Millisecond
	expired := telExpired.Value()
	dead := dialStream(t, addr, "ns/")
	if n := cursorCount(svc); n != 1 {
		t.Fatalf("subscribers = %d", n)
	}
	time.Sleep(50 * time.Millisecond)

	// Any stream RPC triggers the sweep — here a new subscription.
	dialStream(t, addr, "ns/")
	if n := cursorCount(svc); n != 1 {
		t.Fatalf("subscribers after sweep = %d, want 1 (dead lease reclaimed)", n)
	}
	if got := telExpired.Value() - expired; got != 1 {
		t.Fatalf("core.subscribe.expired moved by %d, want 1", got)
	}
	if _, _, _, err := recvUpdates(dead, 1, 10*time.Millisecond); err == nil {
		t.Fatal("expired subscription still serviced")
	}
}

func TestCloseReleasesLeases(t *testing.T) {
	// Service.Close is the last chance to reclaim a lease: every cursor is
	// released and forgotten, and the process-wide gauge gives each back.
	svc, addr := streamService(t, "inproc")
	gauge := telCursors.Value()
	dialStream(t, addr, "ns/")
	dialStream(t, addr, "alerts/")
	if got := telCursors.Value() - gauge; got != 2 {
		t.Fatalf("core.subscribe.cursors moved by %v with two subscribers, want 2", got)
	}
	svc.updates.mu.Lock()
	var cursors []*cursor
	for _, c := range svc.updates.cursors {
		cursors = append(cursors, c)
	}
	svc.updates.mu.Unlock()

	svc.Close()
	if got := telCursors.Value(); got != gauge {
		t.Fatalf("core.subscribe.cursors = %v after Close, want %v (where it started)", got, gauge)
	}
	for _, c := range cursors {
		if !c.closed {
			t.Fatal("Close left a cursor open")
		}
	}
	if n := cursorCount(svc); n != 0 {
		t.Fatalf("Close left %d cursors, want 0", n)
	}
	svc.Close() // the cleanup's second Close finds nothing to give back twice
	if got := telCursors.Value(); got != gauge {
		t.Fatalf("core.subscribe.cursors = %v after a second Close, want %v", got, gauge)
	}
	if _, _, err := svc.SubscribeLocal(""); err == nil {
		t.Fatal("a closed service opened a subscription")
	}
}

func TestLeaseSurvivesIdleGapWhenPolled(t *testing.T) {
	// Regression: recv used to sweep before refreshing the caller's own
	// lastSeen, so a subscriber whose gap between recv calls just exceeded
	// the expiry reaped its own still-live lease and got "no subscription".
	// The receive must refresh the lease first and deliver normally — and a
	// recv parked past the expiry must not be swept from under itself.
	svc, addr := streamService(t, "inproc")
	svc.updates.expiry = 20 * time.Millisecond
	st := dialStream(t, addr, "ns/")
	time.Sleep(50 * time.Millisecond) // idle past the lease expiry

	svc.Publish(NSHardware, seqTree(9), 0)
	ups, _, _, err := recvUpdates(st, 8, 2*time.Second)
	if err != nil {
		t.Fatalf("recv after idle gap reaped its own lease: %v", err)
	}
	if len(ups) != 1 {
		t.Fatalf("recv after idle gap = %d updates, want 1", len(ups))
	}

	parked := make(chan error, 1)
	go func() {
		_, _, _, err := recvUpdates(st, 8, 100*time.Millisecond)
		parked <- err
	}()
	time.Sleep(50 * time.Millisecond) // the recv has been parked past the expiry
	dialStream(t, addr, "ns/")        // sweeps
	if err := <-parked; err != nil {
		t.Fatalf("parked recv: %v", err)
	}
	if _, _, _, err := recvUpdates(st, 8, time.Millisecond); err != nil {
		t.Fatalf("a lease being polled was swept: %v", err)
	}
}

func TestUpdatesClosedLog(t *testing.T) {
	// A recv parked on a subscription answers closed, at once, when the
	// subscription is released under it: by an unsub, or by the log closing.
	svc, addr := streamService(t, "inproc")
	for _, release := range []func(stream){
		func(st stream) { st.unsub() },
		func(stream) { svc.updates.closeAll() },
	} {
		st := dialStream(t, addr, "ns/")
		type answer struct {
			n      int
			closed bool
			err    error
		}
		parked := make(chan answer, 1)
		go func() {
			ups, _, closed, err := recvUpdates(st, 1, 10*time.Second)
			parked <- answer{len(ups), closed, err}
		}()
		waitParked(t, svc, 1)
		start := time.Now()
		release(st)
		a := <-parked
		if a.err != nil || !a.closed || a.n != 0 {
			t.Fatalf("parked recv on a released subscription = %d updates, closed %v, %v; want closed", a.n, a.closed, a.err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("parked recv took %s to see its release", elapsed)
		}
	}
	if _, err := openStream(dialEndpoint(t, addr), "ns/"); err == nil {
		t.Fatal("a closed log opened a subscription")
	}
}

func TestUpdatesEngineCloseUnblocksRecv(t *testing.T) {
	// A parked long-poll must not stall service shutdown, and the waiting
	// subscriber gets an answer or an error rather than hanging.
	svc, addr := streamService(t, "tcp://127.0.0.1:0")
	st := dialStream(t, addr, "ns/")
	type answer struct {
		closed bool
		err    error
	}
	recvd := make(chan answer, 1)
	go func() {
		_, _, closed, err := recvUpdates(st, 1, 30*time.Second)
		recvd <- answer{closed, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the recv park server-side

	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Service.Close stalled behind a parked long-poll")
	}
	select {
	case a := <-recvd:
		if a.err == nil && !a.closed {
			// The parked handler may win the race and flush a graceful empty
			// batch before the connection is severed; the next receive must
			// then fail.
			if _, _, closed, err := recvUpdates(st, 1, time.Second); err == nil && !closed {
				t.Fatal("recv keeps succeeding after service close")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv still parked after service close")
	}
}

func TestUpdatesNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		svc := NewService(ServiceConfig{})
		addr, err := svc.Listen("tcp://127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.Subscribe(context.Background(), NSHardware, "")
		if err != nil {
			t.Fatal(err)
		}
		svc.Publish(NSHardware, seqTree(i), 0)
		select {
		case <-sub.C:
		case <-time.After(5 * time.Second):
			t.Fatal("no update")
		}
		sub.Close()
		c.Close()
		svc.Close()
	}
	// Give exited goroutines a moment to be reaped before counting.
	var after int
	for attempt := 0; attempt < 50; attempt++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d across subscribe cycles", before, after)
}

// rawChild slices the raw node of frame's root child name and frames it.
func rawChild(t *testing.T, frame []byte, name string) []byte {
	t.Helper()
	var out [1][]byte
	if err := conduit.SliceFields(frame, []string{name}, out[:]); err != nil || out[0] == nil {
		t.Fatalf("recv frame has no %q: %v", name, err)
	}
	return conduit.AppendRawFrame(nil, out[0])
}

// TestUpdateCarriesPublishedBytes: whatever door a publish came through, the
// data subtree of the recv frame is the frame ingest stored, byte for byte —
// the stream re-encodes nothing.
func TestUpdateCarriesPublishedBytes(t *testing.T) {
	tree := conduit.NewNode()
	tree.SetFloat("PROC/cn01/98.200000/CPU Util", 95)
	tree.SetString("PROC/cn01/98.200000/State", "ok")
	tree.SetIntArray("PROC/cn01/98.200000/hist", []int64{1, 2, 3})
	doors := map[string]func(*Service, *Client) error{
		RPCPublish: func(_ *Service, c *Client) error { return c.Publish(NSHardware, tree) },
		RPCPublishBatch: func(_ *Service, c *Client) error {
			c.EnableBatch(BatchConfig{MaxAge: time.Hour})
			if err := c.Publish(NSHardware, seqTree(0)); err != nil { // so the entry is not the frame's first
				return err
			}
			if err := c.Publish(NSHardware, tree); err != nil {
				return err
			}
			return c.Flush()
		},
		"Service.Publish": func(svc *Service, _ *Client) error { return svc.Publish(NSHardware, tree, 0) },
	}
	for name, publish := range doors {
		t.Run(name, func(t *testing.T) {
			svc, addr := streamService(t, "tcp://127.0.0.1:0")
			st := dialStream(t, addr, "ns/hardware/")
			c, err := Connect(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := publish(svc, c); err != nil {
				t.Fatal(err)
			}
			pend := pendingRecords(svc.instances[NSHardware]) // nothing here folds
			count, stored := len(pend), pend[len(pend)-1].enc
			if !bytes.Equal(stored, tree.EncodeBinary()) {
				t.Fatal("the last stored record is not the published tree")
			}
			var last []byte
			for n := 0; n < count; {
				frame, err := st.recv(context.Background(), 64, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				ups, _, _, err := decodeUpdates(frame)
				if err != nil || len(ups) == 0 {
					t.Fatalf("recv = %d updates, %v", len(ups), err)
				}
				n += len(ups)
				key := fmt.Sprintf("%06d", len(ups)-1)
				last = rawChild(t, rawChild(t, rawChild(t, frame, "msgs"), key), "data")
			}
			if !bytes.Equal(last, stored) {
				t.Fatalf("update data is not the stored frame:\n got %x\nwant %x", last, stored)
			}
		})
	}
}

// FuzzUpdatesRecvFrame holds both ends of soma.updates.recv to hostile bytes:
// the client's frame reader never panics, delivers nothing from a frame
// DecodeBinary rejects and skips entries without a string topic, a numeric t
// or a data subtree; the handler survives any request. The same bytes go to
// soma.updates.sub, whose prefix is parsed from them: any subscription it
// accepts answers a recv the client accepts.
func FuzzUpdatesRecvFrame(f *testing.F) {
	svc := NewService(ServiceConfig{})
	f.Cleanup(func() { svc.Close() })
	subReq := func(prefix string) []byte {
		req := conduit.NewNode()
		req.SetString("prefix", prefix)
		return req.EncodeBinary()
	}
	sub, err := svc.handleUpdatesSub(context.Background(), subReq("ns/"))
	if err != nil {
		f.Fatal(err)
	}
	resp, _ := conduit.DecodeBinary(sub)
	id, _ := resp.Int("id")
	recvReq := func(id, max, wait int64) []byte {
		req := conduit.NewNode()
		req.SetInt("id", id)
		req.SetInt("max", max)
		req.SetInt("wait_ms", wait)
		return req.EncodeBinary()
	}
	// One real frame, and requests with hostile id / max / wait_ms.
	hardware := slices.Index(Namespaces, NSHardware)
	update := []pub{{ns: NSHardware, enc: seqTree(1).EncodeBinary()}}
	svc.updates.appendRun(hardware, 1, update)
	real, err := svc.handleUpdatesRecv(context.Background(), recvReq(id, 8, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), real.Payload...))
	real.Release()
	for _, req := range [][]byte{
		recvReq(id, -1, -1), recvReq(id, 1<<62, 1<<62), recvReq(-id, 0, 0), recvReq(1<<62, 1, 1),
		conduit.NewNode().EncodeBinary(), seqTree(3).EncodeBinary(), nil,
	} {
		f.Add(req)
	}
	mistyped := conduit.NewNode()
	mistyped.SetInt("msgs/000000/topic", 1)
	mistyped.SetString("msgs/000000/t", "now")
	mistyped.SetInt("msgs/000001/data/x", 1)
	f.Add(mistyped.EncodeBinary())
	// Subscription requests: a prefix no topic has, one matching part of a
	// namespace name, and a prefix of the wrong type.
	f.Add(subReq("bogus"))
	f.Add(subReq("ns/hard"))
	wrong := conduit.NewNode()
	wrong.SetInt("prefix", 7)
	f.Add(wrong.EncodeBinary())

	// A parked recv ends with its context: hostile waits cost nothing here.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, data []byte) {
		ups, _, _, err := decodeUpdates(data)
		tree, derr := conduit.DecodeBinary(data)
		if (err != nil) != (derr != nil) || (err != nil && len(ups) > 0) {
			t.Fatalf("decodeUpdates = %d updates, %v; DecodeBinary says %v", len(ups), err, derr)
		}
		if err == nil {
			for _, u := range ups {
				if u.Tree == nil {
					t.Fatal("update delivered without a tree")
				}
			}
			complete := 0
			if msgs := tree.Child("msgs"); msgs != nil {
				for _, name := range msgs.ChildNames() {
					m := msgs.Child(name)
					_, okTopic := m.StringVal("topic")
					_, okT := m.Float("t")
					if okTopic && okT && m.Child("data") != nil {
						complete++
					}
				}
			}
			if len(ups) != complete {
				t.Fatalf("%d updates from %d complete entries", len(ups), complete)
			}
		}
		svc.updates.appendRun(hardware, 1, update) // something to answer with
		if out, err := svc.handleUpdatesRecv(done, data); err == nil {
			if _, _, _, err := decodeUpdates(out.Payload); err != nil {
				t.Fatalf("handler answered a frame its client rejects: %v", err)
			}
			out.Release()
		}

		out, err := svc.handleUpdatesSub(done, data)
		if err != nil {
			return
		}
		resp, err := conduit.DecodeBinary(out)
		if err != nil {
			t.Fatalf("soma.updates.sub accepted with an undecodable answer: %v", err)
		}
		id, ok := resp.Int("id")
		if !ok {
			t.Fatal("soma.updates.sub accepted with an answer carrying no id")
		}
		defer svc.updates.remove(id, true)
		svc.updates.appendRun(hardware, 1, update)
		frame, err := svc.handleUpdatesRecv(done, recvReq(id, 8, 1))
		if err != nil {
			t.Fatalf("accepted subscription %d refuses a recv: %v", id, err)
		}
		defer frame.Release()
		if _, _, closed, err := decodeUpdates(frame.Payload); err != nil || closed {
			t.Fatalf("accepted subscription %d answers closed %v, %v", id, closed, err)
		}
	})
}
