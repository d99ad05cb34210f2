package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// freshAnswer is the subtree a stampless soma.query for path answers with
// right now, encoded: what every delta poll's tree must encode to.
func freshAnswer(t testing.TB, svc *Service, ns Namespace, path string) []byte {
	t.Helper()
	frame, err := svc.QueryEncoded(ns, path)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := conduit.DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := resp.Get("data")
	if !ok {
		data = conduit.NewNode()
	}
	return data.EncodeBinary()
}

// deltaOp is one random step of TestQueryDeltaMatchesFull against hardware.
func deltaOp(t *testing.T, rng *rand.Rand, svc *Service, step int) {
	t.Helper()
	n := conduit.NewNode()
	switch r := rng.Intn(100); {
	case r < 60: // one leaf, sometimes under a new host
		n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", rng.Intn(32), rng.Intn(4)), float64(step))
	case r < 72: // wide: most hosts at once
		for h := 0; h < 32; h++ {
			if rng.Intn(4) > 0 {
				n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", h, rng.Intn(4)), float64(step))
			}
		}
	case r < 80: // a few hosts and a leaf under the second path
		for i := 0; i < 3; i++ {
			n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", rng.Intn(32), rng.Intn(4)), float64(step))
		}
		n.SetFloat(fmt.Sprintf("GPU/g%d/util", rng.Intn(6)), float64(step))
	case r < 88: // a leaf over an object: a host becomes a value
		n.SetFloat(fmt.Sprintf("LOAD/cn%02d", rng.Intn(32)), float64(step))
	case r < 92: // a leaf over the queried path itself
		n.SetFloat("LOAD", float64(step))
	case r < 95:
		if err := svc.ResetNamespace(NSHardware); err != nil {
			t.Fatal(err)
		}
		return
	default: // a string leaf, so not every value is a float
		n.SetString(fmt.Sprintf("LOAD/cn%02d/state", rng.Intn(32)), fmt.Sprint("s", step))
	}
	if err := svc.Publish(NSHardware, n, 0); err != nil {
		t.Fatal(err)
	}
}

// TestQueryDeltaMatchesFull is the differential test of the partial delta
// answer: seeded random publishes (single leaves, wide writes, new children,
// a leaf over an object at a child and at the queried path, resets) against a
// 2-stripe service, while two clients poll LOAD out of phase and one also
// polls GPU, a path that does not exist at first. After every poll the
// client's tree must encode byte for byte like a fresh stampless answer.
func TestQueryDeltaMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			svc, addr := newTestService(t, ServiceConfig{RanksPerNamespace: 2})
			a, err := Connect(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := Connect(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			check := func(c *Client, who, path string, step int) {
				tree, _, err := c.QueryDelta(NSHardware, path)
				if err != nil {
					t.Fatalf("step %d: %s poll %s: %v", step, who, path, err)
				}
				if got, want := tree.EncodeBinary(), freshAnswer(t, svc, NSHardware, path); !bytes.Equal(got, want) {
					t.Fatalf("step %d: %s's %s differs from the full answer:\n got %s\nwant %s",
						step, who, path, tree.Format(), mustDecode(t, want).Format())
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 800; step++ {
				// Two ops between most polls, so a's base is usually the
				// last generation and b's one or two polls older.
				for k := rng.Intn(3); k >= 0; k-- {
					deltaOp(t, rng, svc, step)
				}
				check(a, "a", "LOAD", step)
				if step%3 == 1 {
					check(b, "b", "LOAD", step)
				}
				if step%5 == 2 {
					check(b, "b", "GPU", step)
				}
			}
			sa, sb := a.DeltaStats(), b.DeltaStats()
			if sa.Partial == 0 || sb.Partial == 0 {
				t.Fatalf("no partial answers (a %+v, b %+v): the test proved nothing", sa, sb)
			}
			t.Logf("a %+v, b %+v", sa, sb)
		})
	}
}

func mustDecode(t testing.TB, frame []byte) *conduit.Node {
	t.Helper()
	n, err := conduit.DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestQueryDeltaConcurrentPollers runs pollers sharing one client and one
// (ns, path) memo beside publishers, under -race in verify-stream. Every
// leaf is written by one publisher with rising values, so a poller's
// successive trees may only move forward; once the publishers stop, each
// poller's next tree must equal the full answer and hold every leaf's last
// value. (Before rebuilds drained the stripes at one cut, a publish that
// landed in an already-drained stripe could be folded after a later one,
// and both checks failed a few runs in a hundred on a loaded box.)
func TestQueryDeltaConcurrentPollers(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{RanksPerNamespace: 2})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const publishers, pollers, hosts = 2, 3, 24
	for h := 0; h < hosts; h++ {
		publishLeaf(t, svc, NSHardware, fmt.Sprintf("LOAD/cn%02d/p0", h), 0)
	}
	stop := make(chan struct{})
	var pubs, polls sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for v := 1; v <= 400; v++ {
				n := conduit.NewNode()
				n.SetFloat(fmt.Sprintf("LOAD/cn%02d/p%d", (v*7+p)%hosts, p), float64(v))
				if err := svc.Publish(NSHardware, n, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	errs := make(chan error, pollers)
	for q := 0; q < pollers; q++ {
		polls.Add(1)
		go func() {
			defer polls.Done()
			var prev *conduit.Node
			for i := 0; ; i++ {
				if i >= 100 {
					select {
					case <-stop:
						return
					default:
					}
				}
				tree, _, err := c.QueryDelta(NSHardware, "LOAD")
				if err != nil {
					errs <- err
					return
				}
				if prev != nil {
					var back string
					prev.Walk(func(path string, leaf *conduit.Node) bool {
						was, _ := leaf.Value().(float64)
						if now, ok := tree.Float(path); !ok || now < was {
							back = fmt.Sprintf("%s: %v after %v", path, now, was)
							return false
						}
						return true
					})
					if back != "" {
						errs <- fmt.Errorf("tree went back: %s", back)
						return
					}
				}
				prev = tree
			}
		}()
	}
	pubs.Wait()
	close(stop)
	polls.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for q := 0; q < pollers; q++ {
		tree, err := c.Query(NSHardware, "LOAD")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tree.EncodeBinary(), freshAnswer(t, svc, NSHardware, "LOAD"); !bytes.Equal(got, want) {
			t.Fatalf("settled poll differs from the full answer")
		}
		for p := 0; p < publishers; p++ {
			for v := 400 - hosts + 1; v <= 400; v++ {
				leaf := fmt.Sprintf("cn%02d/p%d", (v*7+p)%hosts, p)
				if got, _ := tree.Float(leaf); got != float64(v) {
					t.Fatalf("settled %s = %v, last written %d", leaf, got, v)
				}
			}
		}
	}
}

// TestQueryDeltaPatchResync points the client at an engine that answers a
// stamped poll with a patch that does not fit the memo (a wrong count, then a
// wrong base): QueryDelta must drop its memo and re-poll with a zero stamp
// rather than serve the graft.
func TestQueryDeltaPatchResync(t *testing.T) {
	for _, bad := range []string{"count", "base"} {
		t.Run(bad, func(t *testing.T) {
			eng := mercury.NewEngine()
			var polls, unstamped int
			eng.Register(RPCQueryDelta, func(_ context.Context, payload []byte) ([]byte, error) {
				req, err := conduit.DecodeBinary(payload)
				if err != nil {
					return nil, err
				}
				polls++
				resp := conduit.NewNode()
				resp.SetInt("epoch", 1)
				resp.SetInt("gen", int64(polls))
				gen, stamped := req.Int("gen")
				if patch, _ := req.Bool("patch"); stamped && patch {
					resp.SetInt("base", gen)
					resp.SetInt("count", 2)
					resp.SetInt(bad, 99)
					resp.SetFloat("patch/y", 1)
					return resp.EncodeBinary(), nil
				}
				if !stamped {
					unstamped++
				}
				resp.SetFloat("data/x", float64(polls))
				return resp.EncodeBinary(), nil
			})
			addr, err := eng.Listen(fmt.Sprintf("inproc://patch-resync-%s", t.Name()))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			c, err := Connect(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, _, err := c.QueryDelta(NSWorkflow, ""); err != nil {
				t.Fatal(err)
			}
			tree, changed, err := c.QueryDelta(NSWorkflow, "")
			if err != nil {
				t.Fatalf("resync poll: %v", err)
			}
			if v, _ := tree.Float("x"); !changed || v != 3 || tree.Has("y") {
				t.Fatalf("resync poll: changed=%v tree %s, want the re-polled tree (x=3), not the graft", changed, tree.Format())
			}
			if polls != 3 || unstamped != 2 || c.DeltaStats().Partial != 0 {
				t.Fatalf("server saw %d polls, %d unstamped, %d partial; want 3, 2 and 0", polls, unstamped, c.DeltaStats().Partial)
			}
		})
	}
}

// TestQueryDeltaUnpatchedRequest: a stamped soma.query.delta without patch —
// what every client before the partial answer sends — still gets the full
// {epoch, gen, data} or the "unchanged" answer, never a patch.
func TestQueryDeltaUnpatchedRequest(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	for h := 0; h < 8; h++ {
		publishLeaf(t, svc, NSHardware, fmt.Sprintf("LOAD/cn%d/x", h), 1)
	}
	ep, err := mercury.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	poll := func(epoch, gen int64, patch bool) *conduit.Node {
		t.Helper()
		req := conduit.NewNode()
		req.SetString("ns", string(NSHardware))
		req.SetString("path", "LOAD")
		req.SetInt("epoch", epoch)
		req.SetInt("gen", gen)
		if patch {
			req.SetBool("patch", true)
		}
		out, err := ep.Call(context.Background(), RPCQueryDelta, req.EncodeBinary())
		if err != nil {
			t.Fatal(err)
		}
		return mustDecode(t, out)
	}
	first := poll(0, 0, false)
	epoch, _ := first.Int("epoch")
	gen, _ := first.Int("gen")
	if unch, _ := poll(epoch, gen, false).Bool("unchanged"); !unch {
		t.Fatal("a matching stamp without patch did not answer unchanged")
	}
	publishLeaf(t, svc, NSHardware, "LOAD/cn0/x", 2)
	resp := poll(epoch, gen, false)
	if resp.Has("patch") || !resp.Has("data") {
		t.Fatalf("a stale stamp without patch got %s, want the full answer", resp.Format())
	}
	// The same stamp with patch: the one change travels alone.
	resp = poll(epoch, gen, true)
	if patch, ok := resp.Get("patch"); !ok || patch.NumChildren() != 1 || resp.Has("data") {
		t.Fatalf("a stale stamp with patch got %s, want a one-child patch", resp.Format())
	}
	if unch, _ := poll(0, 0, true).Bool("unchanged"); unch || !poll(0, 0, true).Has("data") {
		t.Fatal("a zero stamp with patch did not get the full answer")
	}
	if f, err := svc.QueryDeltaEncoded(NSHardware, "LOAD", uint64(epoch), uint64(gen)); err != nil || mustDecode(t, f).Has("patch") {
		t.Fatalf("QueryDeltaEncoded answered a patch (err %v)", err)
	}
}

// TestQueryDeltaBasesBounded: polling ten times as many distinct paths as the
// bases cap keeps an instance's retained bases at the cap, the most recently
// polled paths, a reset clears them, and a plain query records none.
func TestQueryDeltaBasesBounded(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := svc.instances[NSHardware]
	const paths = 10 * maxDeltaBasePaths
	for i := 0; i < paths; i++ {
		publishLeaf(t, svc, NSHardware, fmt.Sprintf("P%03d/x", i), float64(i))
		if _, err := c.Query(NSHardware, fmt.Sprintf("P%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	in.basesMu.Lock()
	n, newest := len(in.bases), in.bases[0].path
	in.basesMu.Unlock()
	if n != maxDeltaBasePaths || newest != fmt.Sprintf("P%03d", paths-1) {
		t.Fatalf("%d bases retained, newest %q; want %d, newest P%03d", n, newest, maxDeltaBasePaths, paths-1)
	}
	if err := svc.ResetNamespace(NSHardware); err != nil {
		t.Fatal(err)
	}
	in.basesMu.Lock()
	n = len(in.bases)
	in.basesMu.Unlock()
	if n != 0 {
		t.Fatalf("%d bases survived a reset", n)
	}
	// A plain soma.query answer — what a clustered member's shard read is —
	// records none: no caller presents its stamp for a patch.
	publishLeaf(t, svc, NSHardware, "P000/x", 1)
	if _, err := svc.QueryEncoded(NSHardware, "P000"); err != nil {
		t.Fatal(err)
	}
	in.basesMu.Lock()
	n = len(in.bases)
	in.basesMu.Unlock()
	if n != 0 {
		t.Fatalf("a plain query recorded %d bases", n)
	}
}

// FuzzQueryDeltaApply feeds arbitrary delta answers to arbitrary decoded
// memos — repeated patch names, a wrong count or base, a memo that is not an
// object. Applying one must never panic and never modify the memo, which
// callers share, and an accepted one must hold exactly the memo's clone with
// each patch child attached.
func FuzzQueryDeltaApply(f *testing.F) {
	svc := NewService(ServiceConfig{})
	f.Cleanup(func() { svc.Close() })
	for h := 0; h < 20; h++ {
		for s := 0; s < 3; s++ {
			n := conduit.NewNode()
			n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", h, s), float64(h))
			if err := svc.Publish(NSHardware, n, 0); err != nil {
				f.Fatal(err)
			}
		}
	}
	full, err := svc.queryDelta(NSHardware, "LOAD", 0, 0, true)
	if err != nil {
		f.Fatal(err)
	}
	env := mustDecode(f, full)
	epoch, _ := env.Int("epoch")
	gen, _ := env.Int("gen")
	data, _ := env.Get("data")
	memo := data.EncodeBinary()
	n := conduit.NewNode()
	n.SetFloat("LOAD/cn03/s1", -1)
	n.SetFloat("LOAD/cn99/s0", 99)
	if err := svc.Publish(NSHardware, n, 0); err != nil {
		f.Fatal(err)
	}
	real, err := svc.queryDelta(NSHardware, "LOAD", uint64(epoch), uint64(gen), true)
	if err != nil {
		f.Fatal(err)
	}
	if !mustDecode(f, real).Has("patch") {
		f.Fatal("seed answer is not a patch")
	}
	f.Add(memo, real, epoch, gen)
	f.Add(memo, real, epoch, gen+1)                                             // wrong base
	f.Add(memo, real, epoch+1, gen)                                             // wrong epoch
	f.Add(conduit.NewNode().EncodeBinary(), real, epoch, gen)                   // empty memo
	f.Add(mustLeafFrame(f), real, epoch, gen)                                   // a leaf memo
	f.Add(memo, rawDelta(7, 3, 21, "cn01", "cn30", "cn01"), int64(7), int64(3)) // repeated name
	f.Add(memo, rawDelta(7, 3, 99, "cn01"), int64(7), int64(3))                 // wrong count
	f.Add(memo, rawDelta(7, 3, 20), int64(7), int64(3))                         // empty patch
	f.Fuzz(func(t *testing.T, memoFrame, deltaFrame []byte, epoch, gen int64) {
		memo, err := conduit.DecodeBinary(memoFrame)
		if err != nil {
			return
		}
		resp, err := conduit.DecodeBinary(deltaFrame)
		if err != nil {
			return
		}
		before := memo.EncodeBinary()
		tree, ok := (&deltaMemo{epoch: epoch, gen: gen, tree: memo}).graft(resp)
		if !bytes.Equal(memo.EncodeBinary(), before) {
			t.Fatal("graft modified the memo")
		}
		if !ok {
			return
		}
		if e, _ := resp.Int("epoch"); e != epoch {
			t.Fatalf("accepted a patch of epoch %d onto a memo of epoch %d", e, epoch)
		}
		if b, _ := resp.Int("base"); b != gen {
			t.Fatalf("accepted a patch of base %d onto a memo of gen %d", b, gen)
		}
		if count, _ := resp.Int("count"); int64(tree.NumChildren()) != count {
			t.Fatalf("accepted graft holds %d children, count %d", tree.NumChildren(), count)
		}
		patch, _ := resp.Get("patch")
		want := memo.Clone()
		for _, name := range patch.ChildNames() {
			want.Attach(name, patch.Child(name))
		}
		if !bytes.Equal(tree.EncodeBinary(), want.EncodeBinary()) {
			t.Fatalf("graft = %s\nwant %s", tree.Format(), want.Format())
		}
		for _, name := range want.ChildNames() {
			if !tree.Child(name).Equal(want.Child(name)) {
				t.Fatalf("graft's child %q does not resolve", name)
			}
		}
	})
}

// mustLeafFrame is a frame whose root is a leaf.
func mustLeafFrame(t testing.TB) []byte {
	t.Helper()
	n := conduit.NewNode()
	n.SetFloat("", 1)
	if n.Kind() != conduit.KindFloat {
		t.Fatalf("root leaf is %v", n.Kind())
	}
	return n.EncodeBinary()
}

// rawDelta lays out a delta answer by hand, so its patch may repeat a name.
func rawDelta(epoch, base, count int64, names ...string) []byte {
	b := conduit.AppendRawFrame(nil, nil)
	b = conduit.AppendRawObject(b, 5)
	b = conduit.AppendRawInt(conduit.AppendRawName(b, "epoch"), epoch)
	b = conduit.AppendRawInt(conduit.AppendRawName(b, "gen"), base+1)
	b = conduit.AppendRawInt(conduit.AppendRawName(b, "base"), base)
	b = conduit.AppendRawInt(conduit.AppendRawName(b, "count"), count)
	b = conduit.AppendRawObject(conduit.AppendRawName(b, "patch"), len(names))
	for i, name := range names {
		b = conduit.AppendRawFloat(conduit.AppendRawName(b, name), float64(i))
	}
	return b
}
