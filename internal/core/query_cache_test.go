package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

func publishLeaf(t *testing.T, svc *Service, ns Namespace, path string, v float64) {
	t.Helper()
	n := conduit.NewNode()
	n.SetFloat(path, v)
	if err := svc.Publish(ns, n, 0); err != nil {
		t.Fatal(err)
	}
}

// stampAndData reads a soma.query frame's (epoch, gen) stamp and its data,
// encoded.
func stampAndData(t *testing.T, frame []byte) (epoch, gen int64, data []byte) {
	t.Helper()
	resp := mustDecode(t, frame)
	epoch, _ = resp.Int("epoch")
	gen, _ = resp.Int("gen")
	sub, ok := resp.Get("data")
	if !ok {
		sub = conduit.NewNode()
	}
	return epoch, gen, sub.EncodeBinary()
}

// TestQueryEncodedCache is the invalidation table of what a delta poller
// keeps instead of a frame: the stamp. A publish or a reset moves the stamp
// and the data, so a poll presenting the old stamp is answered in full; a
// repeat query and a publish to another namespace move neither, so it is
// answered "unchanged".
func TestQueryEncodedCache(t *testing.T) {
	steps := []struct {
		name string
		// mutate changes the namespace between the two frames (nil = repeat
		// query against unchanged state).
		mutate   func(svc *Service)
		wantSame bool
	}{
		{"repeat query hits", nil, true},
		{"publish invalidates", func(svc *Service) {
			publishLeaf(t, svc, NSHardware, "PROC/cn0001/util", 99)
		}, false},
		{"reset invalidates", func(svc *Service) {
			if err := svc.ResetNamespace(NSHardware); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"other namespace does not invalidate", func(svc *Service) {
			publishLeaf(t, svc, NSWorkflow, "RP/x", 1)
		}, true},
	}
	for _, tc := range steps {
		t.Run(tc.name, func(t *testing.T) {
			svc, _ := newTestService(t, ServiceConfig{})
			publishLeaf(t, svc, NSHardware, "PROC/cn0001/util", 42)
			f1, err := svc.QueryEncoded(NSHardware, "PROC")
			if err != nil {
				t.Fatal(err)
			}
			if tc.mutate != nil {
				tc.mutate(svc)
			}
			f2, err := svc.QueryEncoded(NSHardware, "PROC")
			if err != nil {
				t.Fatal(err)
			}
			e1, g1, d1 := stampAndData(t, f1)
			e2, g2, d2 := stampAndData(t, f2)
			if sameStamp := e1 == e2 && g1 == g2; sameStamp != tc.wantSame {
				t.Fatalf("stamp (%d, %d) -> (%d, %d), want same %v", e1, g1, e2, g2, tc.wantSame)
			}
			if sameData := bytes.Equal(d1, d2); sameData != tc.wantSame {
				t.Fatalf("data same = %v, want %v", sameData, tc.wantSame)
			}
			poll, err := svc.QueryDeltaEncoded(NSHardware, "PROC", uint64(e1), uint64(g1))
			if err != nil {
				t.Fatal(err)
			}
			if unch, _ := mustDecode(t, poll).Bool("unchanged"); unch != tc.wantSame {
				t.Fatalf("a poll with the first stamp answered unchanged = %v, want %v", unch, tc.wantSame)
			}
		})
	}
}

// TestQueryEncodedFrameShape checks the wire envelope: {epoch, gen, data}
// with a nonzero epoch and the queried subtree under data, and that distinct
// paths answer distinct data.
func TestQueryEncodedFrameShape(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{})
	publishLeaf(t, svc, NSHardware, "PROC/cn0001/util", 42)
	frame, err := svc.QueryEncoded(NSHardware, "PROC/cn0001")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := conduit.DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, ok := resp.Int("epoch"); !ok || epoch == 0 {
		t.Fatalf("epoch = %d, %v; want nonzero", epoch, ok)
	}
	if _, ok := resp.Int("gen"); !ok {
		t.Fatal("gen missing")
	}
	data, ok := resp.Get("data")
	if !ok {
		t.Fatal("data missing")
	}
	if v, _ := data.Float("util"); v != 42 {
		t.Fatalf("data/util = %g", v)
	}
	other, _ := svc.QueryEncoded(NSHardware, "")
	if _, _, d := stampAndData(t, other); bytes.Equal(d, data.EncodeBinary()) {
		t.Fatal("distinct paths answered the same data")
	}
}

// TestStatsCacheRefreshes guards against the stats frame cache serving a
// frame that predates a publish: the stamp key must move with the instance.
func TestStatsCacheRefreshes(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	publishLeaf(t, svc, NSWorkflow, "RP/x", 1)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st[NSWorkflow].Publishes != 1 {
		t.Fatalf("publishes = %d, want 1", st[NSWorkflow].Publishes)
	}
	// Served from cache the second time (same stamps) — content identical.
	st2, _ := c.Stats()
	if st2[NSWorkflow].Publishes != 1 {
		t.Fatalf("cached publishes = %d", st2[NSWorkflow].Publishes)
	}
	publishLeaf(t, svc, NSWorkflow, "RP/y", 2)
	st3, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st3[NSWorkflow].Publishes != 2 {
		t.Fatalf("post-publish publishes = %d, want 2", st3[NSWorkflow].Publishes)
	}
}

// TestQueryDeltaUnchanged drives the delta protocol end to end over RPC:
// first poll full, repeat poll unchanged (memoized tree reused), next
// publish full again — and the unchanged frame is ≥10× smaller than the
// full frame it stands in for.
func TestQueryDeltaUnchanged(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A realistically sized tree: 64 hosts × 2 metrics.
	big := conduit.NewNode()
	for i := 0; i < 64; i++ {
		big.SetFloat(fmt.Sprintf("PROC/cn%04d/CPU Util", i), float64(i))
		big.SetFloat(fmt.Sprintf("PROC/cn%04d/Mem Used", i), float64(i*2))
	}
	if err := svc.Publish(NSHardware, big, 0); err != nil {
		t.Fatal(err)
	}

	tr1, changed, err := c.QueryDelta(NSHardware, "PROC")
	if err != nil || !changed {
		t.Fatalf("first poll: changed=%v err=%v, want full response", changed, err)
	}
	tr2, changed, err := c.QueryDelta(NSHardware, "PROC")
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("repeat poll reported changed")
	}
	if tr1 != tr2 {
		t.Fatal("unchanged poll did not reuse the memoized tree")
	}
	ds := c.DeltaStats()
	if ds.Unchanged != 1 || ds.BytesSaved <= 0 {
		t.Fatalf("delta stats = %+v", ds)
	}

	publishLeaf(t, svc, NSHardware, "PROC/cn0000/CPU Util", 77)
	tr3, changed, err := c.QueryDelta(NSHardware, "PROC")
	if err != nil || !changed {
		t.Fatalf("post-publish poll: changed=%v err=%v", changed, err)
	}
	if v, _ := tr3.Float("cn0000/CPU Util"); v != 77 {
		t.Fatalf("post-publish value = %g", v)
	}

	// Wire-size ratio: the unchanged frame must be at least 10× smaller than
	// the full frame (the ISSUE's bytes-on-wire acceptance bound).
	full, err := svc.QueryEncoded(NSHardware, "PROC")
	if err != nil {
		t.Fatal(err)
	}
	env, _ := conduit.DecodeBinary(full)
	epoch, _ := env.Int("epoch")
	gen, _ := env.Int("gen")
	unch, err := svc.QueryDeltaEncoded(NSHardware, "PROC", uint64(epoch), uint64(gen))
	if err != nil {
		t.Fatal(err)
	}
	if u, _ := conduit.DecodeBinary(unch); u != nil {
		if flag, _ := u.Bool("unchanged"); !flag {
			t.Fatal("matching stamp did not answer unchanged")
		}
	}
	if len(full) < 10*len(unch) {
		t.Fatalf("bytes reduction %d/%d < 10x", len(full), len(unch))
	}
}

// TestQueryDeltaZeroStampNeverMatches: a client with no memo presents
// (0, 0); the service must send the full tree even when nothing changed.
func TestQueryDeltaZeroStampNeverMatches(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{})
	publishLeaf(t, svc, NSWorkflow, "RP/x", 1)
	frame, err := svc.QueryDeltaEncoded(NSWorkflow, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := conduit.DecodeBinary(frame)
	if flag, _ := resp.Bool("unchanged"); flag {
		t.Fatal("zero stamp answered unchanged")
	}
	if _, ok := resp.Get("data"); !ok {
		t.Fatal("zero stamp response missing data")
	}
}

// TestQueryDeltaReconnect restarts the service under the same TCP address:
// the new process draws a fresh epoch, so the client's memo from the old
// lineage must resync with a full response even though the new instance can
// reach the same generation number — never report unchanged across a
// restart.
func TestQueryDeltaReconnect(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Queries are idempotent: let the endpoint retry through the redial so
	// the first poll after the restart lands instead of surfacing EOF.
	c, err := ConnectPolicy(addr, nil, &mercury.CallPolicy{
		MaxRetries: 3,
		Idempotent: func(string) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	publishLeaf(t, svc, NSWorkflow, "RP/phase", 1)
	if _, changed, err := c.QueryDelta(NSWorkflow, ""); err != nil || !changed {
		t.Fatalf("prime poll: changed=%v err=%v", changed, err)
	}
	if _, changed, _ := c.QueryDelta(NSWorkflow, ""); changed {
		t.Fatal("repeat poll reported changed")
	}
	svc.Close()

	// Same address, same publish count: without the reset-epoch the restarted
	// service would reach the same generation and falsely answer unchanged.
	svc2 := NewService(ServiceConfig{})
	if _, err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer svc2.Close()
	publishLeaf(t, svc2, NSWorkflow, "RP/phase", 2)
	tree, changed, err := c.QueryDelta(NSWorkflow, "")
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("poll after restart reported unchanged — stale memo served")
	}
	if v, _ := tree.Float("RP/phase"); v != 2 {
		t.Fatalf("post-restart tree = %g, want the new service's data", v)
	}
}

// TestQueryDeltaDefensiveResync points the client at an engine whose
// soma.query.delta answers "unchanged" for a stamp the client does not hold:
// QueryDelta must drop its memo and re-poll with a zero stamp rather than
// serve the memoized tree.
func TestQueryDeltaDefensiveResync(t *testing.T) {
	eng := mercury.NewEngine()
	var polls, unstamped int
	lie := true // answer the first stamped poll with a stamp nobody sent
	eng.Register(RPCQueryDelta, func(_ context.Context, payload []byte) ([]byte, error) {
		req, err := conduit.DecodeBinary(payload)
		if err != nil {
			return nil, err
		}
		polls++
		resp := conduit.NewNode()
		resp.SetInt("epoch", 1)
		if _, stamped := req.Int("gen"); stamped && lie {
			lie = false
			resp.SetInt("gen", 99)
			resp.SetBool("unchanged", true)
			return resp.EncodeBinary(), nil
		} else if !stamped {
			unstamped++
		}
		resp.SetInt("gen", int64(polls))
		resp.SetFloat("data/x", float64(polls))
		return resp.EncodeBinary(), nil
	})
	addr, err := eng.Listen(fmt.Sprintf("inproc://resync-%s", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, changed, err := c.QueryDelta(NSWorkflow, ""); err != nil || !changed {
		t.Fatalf("first poll: changed=%v err=%v", changed, err)
	}
	tree, changed, err := c.QueryDelta(NSWorkflow, "")
	if err != nil {
		t.Fatalf("resync poll: %v", err)
	}
	if v, _ := tree.Float("x"); !changed || v != 3 {
		t.Fatalf("resync poll: changed=%v x=%g, want the re-polled tree (x=3), not the memo", changed, v)
	}
	if polls != 3 || unstamped != 2 {
		t.Fatalf("server saw %d polls, %d unstamped; want 3 and 2 (first poll + resync)", polls, unstamped)
	}
}

// TestQueryDeltaResetRace hammers publish + encoded query + reset
// concurrently; under -race this is the regression test for a mid-flight
// reset (stamps are written under rebuildMu, the "unchanged" frame hangs off
// an immutable snapshot). The invariant checked after the storm: a final
// publish is visible through QueryEncoded.
func TestQueryDeltaResetRace(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{RanksPerNamespace: 4})
	var wg sync.WaitGroup
	stopCh := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopCh:
				return
			default:
			}
			publishLeaf(t, svc, NSHardware, "PROC/cn0001/util", float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopCh:
				return
			default:
			}
			if _, err := svc.QueryEncoded(NSHardware, "PROC"); err != nil {
				return
			}
			if _, err := svc.QueryDeltaEncoded(NSHardware, "PROC", 0, 0); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := svc.ResetNamespace(NSHardware); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := svc.QueryEncoded(NSHardware, ""); err != nil {
			t.Fatal(err)
		}
	}
	close(stopCh)
	wg.Wait()
	publishLeaf(t, svc, NSHardware, "PROC/final", 123)
	frame, err := svc.QueryEncoded(NSHardware, "PROC")
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := conduit.DecodeBinary(frame)
	data, _ := resp.Get("data")
	if v, _ := data.Float("final"); v != 123 {
		t.Fatalf("final publish not visible: %g", v)
	}
}

// TestQueryDeltaStreamSoak is the concurrent publish+query+reset soak run
// repeatedly under -race by make verify-stream: a delta-polling client must
// never observe a tree older than the last state it already saw for the
// same lineage (values only move forward between resets).
func TestQueryDeltaStreamSoak(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{RanksPerNamespace: 4})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			publishLeaf(t, svc, NSWorkflow, "RP/counter", float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := svc.ResetNamespace(NSWorkflow); err != nil {
				return
			}
		}
	}()
	// The monotonic check is per observed lineage: a reset may legally move
	// the value backwards, but then the tree must come from a full response
	// (changed=true) — an "unchanged" answer repeating the memo can never go
	// backwards.
	var last float64
	for i := 0; i < 1000; i++ {
		tree, changed, err := c.QueryDelta(NSWorkflow, "")
		if err != nil {
			t.Fatal(err)
		}
		v, _ := tree.Float("RP/counter")
		if !changed && v != last {
			t.Fatalf("unchanged poll moved the tree: %g -> %g", last, v)
		}
		last = v
	}
	close(done)
	wg.Wait()
}

// TestFoldRecordsLastWriterWins checks the rebuild's fold over raw records
// against the tree merge it stands in for: the same trees merged in seq order
// with Node.Merge, including last-writer-wins on colliding leaf paths.
func TestFoldRecordsLastWriterWins(t *testing.T) {
	var pend []record
	want := conduit.NewNode()
	// 400 records across 40 keys: each key written 10 times with increasing
	// values, so the fold order decides the surviving value.
	for round := 0; round < 10; round++ {
		for k := 0; k < 40; k++ {
			n := conduit.NewNode()
			n.SetFloat(fmt.Sprintf("PROC/cn%04d/util", k), float64(round*1000+k))
			n.SetInt(fmt.Sprintf("PROC/cn%04d/round", k), int64(round))
			pend = append(pend, record{seq: uint64(len(pend) + 1), enc: n.EncodeBinary()})
			want.Merge(n)
		}
	}
	got := foldRecords(pend)
	if got.Format() != want.Format() {
		t.Fatalf("byte fold diverged from the tree merge:\n--- fold\n%s\n--- merge\n%s", got.Format(), want.Format())
	}
	// Last writer (round 9) won.
	if v, _ := got.Float("PROC/cn0003/util"); v != 9003 {
		t.Fatalf("last-writer-wins violated: %g", v)
	}
	if foldRecords(nil) != nil {
		t.Fatal("an empty drain must fold to nil")
	}
}
