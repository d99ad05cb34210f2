package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// queryDelta is QueryDeltaEncoded for a caller that may also accept a patch:
// queryAnswer's decision, encoded as the handler encodes it.
func (s *Service) queryDelta(ns Namespace, path string, epoch, gen uint64, patch bool) ([]byte, error) {
	resp, sn, err := s.queryAnswer(ns, path, epoch, gen, patch)
	switch {
	case err != nil:
		return nil, err
	case resp == nil:
		return sn.unchanged, nil
	}
	return resp.EncodeBinary(), nil
}

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

// TestQueryDeltaStaleStamps is the differential test of stamps far from the
// current snapshot: seeded random publishes over 64 hosts of four leaves —
// single leaves, a host turned into a leaf and back, and twice LOAD itself
// turned into a leaf and then republished whole — against a 2-stripe
// service, while one client polls LOAD every step, a snapshot each, a
// laggard polls it every 30 steps, its stamp dozens of snapshots old, and a
// third client polls LOAD/cn03. After every poll the client's tree must
// encode byte for byte like a fresh stampless answer, and the laggard and
// the LOAD/cn03 poller must each have been answered with patches.
func TestQueryDeltaStaleStamps(t *testing.T) {
	const hosts = 64
	all := conduit.NewNode()
	for h := 0; h < hosts; h++ {
		for s := 0; s < 4; s++ {
			all.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", h, s), 0)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			svc, addr := newTestService(t, ServiceConfig{RanksPerNamespace: 2})
			clients := make([]*Client, 3)
			for i := range clients {
				c, err := Connect(addr, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			check := func(who int, path string, step int) {
				tree, _, err := clients[who].QueryDelta(NSHardware, path)
				if err != nil {
					t.Fatalf("step %d: client %d poll %s: %v", step, who, path, err)
				}
				if got, want := tree.EncodeBinary(), freshAnswer(t, svc, NSHardware, path); !bytes.Equal(got, want) {
					t.Fatalf("step %d: client %d's %s differs from the full answer:\n got %s\nwant %s",
						step, who, path, tree.Format(), mustDecode(t, want).Format())
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 600; step++ {
				n := conduit.NewNode()
				switch r := rng.Intn(100); {
				case step%200 == 0 || step%200 == 101:
					n = all
				case step%200 == 100: // LOAD a leaf until the next step
					n.SetFloat("LOAD", float64(step))
				case r < 25:
					n.SetFloat(fmt.Sprintf("LOAD/cn03/s%d", rng.Intn(4)), float64(step))
				case r < 30: // LOAD/cn03 a leaf until its next write
					n.SetFloat("LOAD/cn03", float64(step))
				default:
					n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", rng.Intn(hosts), rng.Intn(4)), float64(step))
				}
				if err := svc.Publish(NSHardware, n, 0); err != nil {
					t.Fatal(err)
				}
				check(0, "LOAD", step)
				if step%30 == 29 {
					check(1, "LOAD", step)
				}
				if step%2 == 0 {
					check(2, "LOAD/cn03", step)
				}
			}
			for i, c := range clients[1:] {
				if c.DeltaStats().Partial == 0 {
					t.Fatalf("client %d got no patch (%+v): the test proved nothing", i+1, c.DeltaStats())
				}
				t.Logf("client %d: %+v", i+1, c.DeltaStats())
			}
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

// TestQueryDeltaRoundRobin: one client polls many paths of a solo service
// round robin, 32 children under each, one child of every path rewritten
// between rounds. A patch is a stamp compare on the children of the current
// snapshot, so how many paths are polled does not matter: every poll after a
// path's first is answered with a patch of the one child. The counts straddle
// 16, where a cache of 16 entries per path polled round robin would stop
// answering patches at all.
func TestQueryDeltaRoundRobin(t *testing.T) {
	const children, rounds = 32, 20
	for _, paths := range []int{8, 16, 17, 24, 64} {
		t.Run(fmt.Sprint("paths=", paths), func(t *testing.T) {
			svc, addr := newTestService(t, ServiceConfig{})
			c, err := Connect(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			n := conduit.NewNode()
			for p := 0; p < paths; p++ {
				for k := 0; k < children; k++ {
					n.SetFloat(fmt.Sprintf("P%02d/c%02d/x", p, k), 0)
				}
			}
			if err := svc.Publish(NSHardware, n, 0); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < rounds; round++ {
				if round > 0 {
					n := conduit.NewNode()
					for p := 0; p < paths; p++ {
						n.SetFloat(fmt.Sprintf("P%02d/c%02d/x", p, (round+p)%children), float64(round))
					}
					if err := svc.Publish(NSHardware, n, 0); err != nil {
						t.Fatal(err)
					}
				}
				for p := 0; p < paths; p++ {
					path := fmt.Sprintf("P%02d", p)
					tree, err := c.Query(NSHardware, path)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := tree.EncodeBinary(), freshAnswer(t, svc, NSHardware, path); !bytes.Equal(got, want) {
						t.Fatalf("round %d: %s differs from the full answer", round, path)
					}
				}
			}
			if got, want := c.DeltaStats().Partial, int64((rounds-1)*paths); got != want {
				t.Fatalf("%d paths round robin: %d patch answers of %d polls, want %d", paths, got, rounds*paths, want)
			}
		})
	}
}

// TestQueryDeltaEvictionsCounted: one client polling maxGatherMemos paths
// round robin through a clustered member keeps every path's gather memo,
// and one path more evicts one on every poll — the cliff past which every
// poll re-asks every member stampless. cluster.scatter.memos_evicted must
// stay put below the cliff and move past it.
func TestQueryDeltaEvictionsCounted(t *testing.T) {
	for _, paths := range []int{maxGatherMemos, maxGatherMemos + 1} {
		t.Run(fmt.Sprintf("clustered=true/paths=%d", paths), func(t *testing.T) {
			svcs, addrs := startFleet(t, 3)
			for i := 0; i < paths; i++ {
				publishLeaf(t, svcs[0], NSHardware, fmt.Sprintf("P%02d/x", i), float64(i))
			}
			c, err := Connect(addrs[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			before := telMemosEvicted.Value()
			for round := 0; round < 3; round++ {
				for i := 0; i < paths; i++ {
					if _, err := c.Query(NSHardware, fmt.Sprintf("P%02d", i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			evicted := telMemosEvicted.Value() - before
			if cliff := paths > maxGatherMemos; (evicted > 0) != cliff {
				t.Fatalf("%d paths polled round robin evicted %d, want evictions %v", paths, evicted, cliff)
			}
		})
	}
}

// stampedPoll sends one soma.query.delta for path in hardware presenting
// (epoch, gen) with patch: true to the service at addr and returns the
// decoded answer.
func stampedPoll(t testing.TB, addr, path string, epoch, gen int64) *conduit.Node {
	t.Helper()
	ep, err := mercury.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	req := conduit.NewNode()
	req.SetString("ns", string(NSHardware))
	req.SetString("path", path)
	req.SetInt("epoch", epoch)
	req.SetInt("gen", gen)
	req.SetBool("patch", true)
	out, err := ep.Call(context.Background(), RPCQueryDelta, req.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	return mustDecode(t, out)
}

// stamp is an answer's (epoch, gen).
func stamp(resp *conduit.Node) (epoch, gen int64) {
	epoch, _ = resp.Int("epoch")
	gen, _ = resp.Int("gen")
	return epoch, gen
}

// checkPatch fails t unless resp is a patch of exactly the children named
// want, in any order.
func checkPatch(t testing.TB, resp *conduit.Node, want ...string) {
	t.Helper()
	patch, ok := resp.Get("patch")
	if !ok {
		t.Fatalf("got %s, want a patch of %v", resp.Format(), want)
	}
	got := patch.ChildNames()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("patch holds %v, want exactly %v", got, want)
	}
}

// rewrite publishes a new value to LOAD/<host>/s1 for each host through svc,
// one publish each: a clustered member places each on its owner.
func rewrite(t *testing.T, svc *Service, v float64, hosts ...string) {
	t.Helper()
	for _, h := range hosts {
		publishLeaf(t, svc, NSHardware, "LOAD/"+h+"/s1", v)
	}
}

// TestQueryDeltaPatchMinimal: after k of a path's N children are rewritten
// since a stamp, over one snapshot or several, the patch to that stamp
// carries exactly those k — nothing an older snapshot changed, nothing
// untouched.
func TestQueryDeltaPatchMinimal(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{RanksPerNamespace: 2})
	n := conduit.NewNode()
	for h := 0; h < 32; h++ {
		for s := 0; s < 4; s++ {
			n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", h, s), 0)
		}
	}
	if err := svc.Publish(NSHardware, n, 0); err != nil {
		t.Fatal(err)
	}
	epoch, g0 := stamp(stampedPoll(t, addr, "LOAD", 0, 0))
	rewrite(t, svc, 1, "cn01", "cn02", "cn03")
	resp := stampedPoll(t, addr, "LOAD", epoch, g0)
	checkPatch(t, resp, "cn01", "cn02", "cn03")
	_, g1 := stamp(resp)
	rewrite(t, svc, 2, "cn03", "cn10")
	resp = stampedPoll(t, addr, "LOAD", epoch, g1)
	checkPatch(t, resp, "cn03", "cn10")
	_, g2 := stamp(resp)
	rewrite(t, svc, 3, "cn20")
	stampedPoll(t, addr, "LOAD", epoch, g2) // one more snapshot
	rewrite(t, svc, 4, "cn21")
	checkPatch(t, stampedPoll(t, addr, "LOAD", epoch, g2), "cn20", "cn21")
	checkPatch(t, stampedPoll(t, addr, "LOAD", epoch, g1), "cn03", "cn10", "cn20", "cn21")
	checkPatch(t, stampedPoll(t, addr, "LOAD", epoch, g0), "cn01", "cn02", "cn03", "cn10", "cn20", "cn21")
	// A child's own children are stamped the same way.
	checkPatch(t, stampedPoll(t, addr, "LOAD/cn03", epoch, g1), "s1")
	checkPatch(t, stampedPoll(t, addr, "LOAD/cn04", epoch, g0))
}

// TestQueryDeltaStampHorizon: node stamps are 32-bit, so a stamp 2³¹
// snapshots old or older is answered in full, and one a snapshot younger
// still gets the exact patch.
func TestQueryDeltaStampHorizon(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	in := svc.instances[NSHardware]
	n := conduit.NewNode()
	for h := 0; h < 8; h++ {
		n.SetFloat(fmt.Sprintf("LOAD/cn%d/s1", h), 0)
	}
	if err := svc.Publish(NSHardware, n, 0); err != nil {
		t.Fatal(err)
	}
	epoch, g := stamp(stampedPoll(t, addr, "LOAD", 0, 0))
	leap := func(to int64) {
		in.rebuildMu.Lock()
		in.snaps = uint64(to)
		in.rebuildMu.Unlock()
	}
	leap(g + stampHorizon - 2)
	rewrite(t, svc, 1, "cn3")
	resp := stampedPoll(t, addr, "LOAD", epoch, g)
	if _, gen := stamp(resp); gen != g+stampHorizon-1 {
		t.Fatalf("snapshot %d, want %d", gen, g+stampHorizon-1)
	}
	checkPatch(t, resp, "cn3")
	rewrite(t, svc, 2, "cn4")
	resp = stampedPoll(t, addr, "LOAD", epoch, g)
	if resp.Has("patch") || !resp.Has("data") {
		t.Fatalf("a stamp 2³¹ snapshots old got %s, want the full answer", resp.Format())
	}
	_, g = stamp(resp)
	rewrite(t, svc, 3, "cn5")
	checkPatch(t, stampedPoll(t, addr, "LOAD", epoch, g), "cn5")
}

// FuzzQueryDeltaApply feeds arbitrary delta answers to arbitrary decoded
// memos through applyDelta, which a client's poll reads its answer with:
// repeated patch names, a wrong count or base, a memo that is not an object,
// no memo at all. Applying one must never panic and never modify the memo,
// which callers share; an accepted patch must hold exactly the memo's clone
// with each patch child attached, an accepted "unchanged" must be the memo
// itself, and neither may be accepted without a memo. The same answer goes
// through memberShard, which a clustered member's gather reads each member's
// answer with, against the memo as a tree and as raw bytes: it must never
// panic, and must take the answer as applyDelta does (checkMemberShard).
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
	unchanged := unchangedAnswer(uint64(epoch), uint64(gen)).EncodeBinary()
	f.Add(memo, real, epoch, gen)
	f.Add(memo, real, epoch, gen+1)                                             // wrong base
	f.Add(memo, real, epoch+1, gen)                                             // wrong epoch
	f.Add(conduit.NewNode().EncodeBinary(), real, epoch, gen)                   // empty memo
	f.Add(mustLeafFrame(f), real, epoch, gen)                                   // a leaf memo
	f.Add(memo, rawDelta(7, 3, 21, "cn01", "cn30", "cn01"), int64(7), int64(3)) // repeated name
	f.Add(memo, rawDelta(7, 3, 99, "cn01"), int64(7), int64(3))                 // wrong count
	f.Add(memo, rawDelta(7, 3, 20), int64(7), int64(3))                         // empty patch
	f.Add(memo, unchanged, epoch, gen)                                          // unchanged
	f.Add(memo, unchanged, epoch, gen+1)                                        // unchanged to another stamp
	f.Add(memo, full, int64(0), int64(0))                                       // full, to no memo
	for _, unch := range []func(*conduit.Node){
		func(n *conduit.Node) { n.SetBool("unchanged", false) },
		func(n *conduit.Node) { n.SetInt("unchanged", 1) },
	} {
		odd := mustDecode(f, full)
		unch(odd)
		f.Add(memo, odd.EncodeBinary(), epoch, gen) // a full answer that names "unchanged"
	}
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
		var held *deltaMemo
		if epoch != 0 {
			held = &deltaMemo{epoch: epoch, gen: gen, tree: memo}
		}
		next, kind, ok := applyDelta(held, resp)
		if !bytes.Equal(memo.EncodeBinary(), before) {
			t.Fatal("applyDelta modified the memo")
		}
		checkMemberShard(t, held, memoFrame, deltaFrame, next, kind, ok)
		if !ok {
			return
		}
		switch {
		case kind == deltaFull:
			data, has := resp.Get("data")
			if has && next.tree != data || !has && !next.tree.IsEmpty() {
				t.Fatal("a full answer applied to something other than its data")
			}
			return
		case held == nil:
			t.Fatalf("%s applied without a memo", kind)
		case kind == deltaUnchanged:
			e, _ := resp.Int("epoch")
			g, _ := resp.Int("gen")
			if next != held || e != epoch || g != gen {
				t.Fatalf("accepted \"unchanged\" (%d, %d) to a memo of (%d, %d)", e, g, epoch, gen)
			}
			return
		}
		tree := next.tree
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
			t.Fatalf("patched memo = %s\nwant %s", tree.Format(), want.Format())
		}
		for _, name := range want.ChildNames() {
			if !tree.Child(name).Equal(want.Child(name)) {
				t.Fatalf("patched memo's child %q does not resolve", name)
			}
		}
	})
}

// FuzzQueryDeltaStamps drives a solo service with ops read two bytes at a
// time from the input — a leaf, a wide write, a new host, a leaf over a host
// or over the queried path, a reset, a leap of the snapshot count by 2³⁰
// toward the stamp horizon and the 32-bit wrap — and polls of LOAD between
// them that present, with patch: true, no stamp or any stamp handed out so
// far, as the input picks. Each answer, applied through applyDelta to the
// memo the presented stamp came with, must apply and encode byte for byte
// like a fresh stampless answer.
func FuzzQueryDeltaStamps(f *testing.F) {
	// Sixteen hosts, then single writes, new hosts and leaps between polls of
	// older and older stamps, to past the horizon.
	f.Add([]byte{1, 0xff, 7, 0, 0, 1, 7, 0, 0, 2, 7, 1, 2, 0, 7, 0, 6, 0, 0, 3, 7, 0, 7, 2,
		6, 0, 0, 5, 7, 3, 6, 0, 0, 6, 7, 0, 7, 6})
	// A host and then LOAD turned into leaves and back, and a reset.
	f.Add([]byte{1, 0xff, 7, 0, 3, 4, 7, 0, 0, 4, 7, 1, 7, 0, 4, 0, 7, 2, 1, 0xff, 7, 3,
		0, 7, 7, 4, 7, 2, 5, 0, 1, 0x0f, 7, 5, 0, 1, 7, 6, 7, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		svc := NewService(ServiceConfig{DisableRollups: true})
		defer svc.Close()
		in := svc.instances[NSHardware]
		var held []*deltaMemo
		for i := 0; i+1 < len(ops) && i < 256; i += 2 {
			op, arg := ops[i]%8, int(ops[i+1])
			n := conduit.NewNode()
			switch op {
			case 0: // a leaf
				n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", arg%16, arg/16%4), float64(i))
			case 1: // wide: the hosts arg's bits pick, twice over
				for h := 0; h < 16; h++ {
					if arg>>(h%8)&1 == 1 {
						n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", h, h/8), float64(i))
					}
				}
			case 2: // a host not written before
				n.SetFloat(fmt.Sprintf("LOAD/cn%03d/s0", 16+arg), float64(i))
			case 3: // a leaf over a host
				n.SetFloat(fmt.Sprintf("LOAD/cn%02d", arg%16), float64(i))
			case 4: // a leaf over the queried path
				n.SetFloat("LOAD", float64(i))
			case 5:
				if err := svc.ResetNamespace(NSHardware); err != nil {
					t.Fatal(err)
				}
				continue
			case 6:
				in.rebuildMu.Lock()
				in.snaps += 1 << 30
				in.rebuildMu.Unlock()
				continue
			default:
				var memo *deltaMemo
				var epoch, gen uint64
				if k := arg % (len(held) + 1); k < len(held) {
					memo = held[k]
					epoch, gen = uint64(memo.epoch), uint64(memo.gen)
				}
				frame, err := svc.queryDelta(NSHardware, "LOAD", epoch, gen, true)
				if err != nil {
					t.Fatal(err)
				}
				next, kind, ok := applyDelta(memo, mustDecode(t, frame))
				if !ok {
					t.Fatalf("op %d: %s to the stamp (%d, %d) does not apply", i/2, kind, epoch, gen)
				}
				if got, want := next.tree.EncodeBinary(), freshAnswer(t, svc, NSHardware, "LOAD"); !bytes.Equal(got, want) {
					t.Fatalf("op %d: %s to the stamp (%d, %d) gives\n%s\nwant\n%s", i/2, kind, epoch, gen, next.tree.Format(), mustDecode(t, want).Format())
				}
				held = append(held, next)
				continue
			}
			if err := svc.Publish(NSHardware, n, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkMemberShard reads deltaFrame with memberShard against held, once
// with held's tree and once with it raw (held nil: once, with no shard), and
// fails t unless each read takes the answer as applyDelta did — next, kind
// and ok — or refuses one applyDelta applies only for an object without
// children, which no member's snapshot holds, or for an envelope that
// repeats a field name, which no encoder writes (conduit.SliceFields).
func checkMemberShard(t *testing.T, held *deltaMemo, memoFrame, deltaFrame []byte, next *deltaMemo, kind deltaKind, ok bool) {
	t.Helper()
	for _, raw := range []bool{false, true} {
		var prev *shard
		if held != nil {
			prev = &shard{deltaMemo: *held}
			if raw {
				prev.tree, prev.raw = nil, memoFrame[4:]
			}
		} else if raw {
			return
		}
		sh, k, patch, err := memberShard(prev, deltaFrame)
		if err != nil {
			var f [5][]byte
			if ok && !errors.Is(err, errChildless) && conduit.SliceFields(deltaFrame, answerFields, f[:]) == nil {
				t.Fatalf("memberShard (raw %v) refused %s that applyDelta applies: %v", raw, kind, err)
			}
			continue
		}
		if !ok || k != kind {
			t.Fatalf("memberShard (raw %v) took %s that applyDelta reads as %s (ok %v)", raw, k, kind, ok)
		}
		switch k {
		case deltaUnchanged:
			if sh != prev || patch != nil {
				t.Fatal("memberShard's \"unchanged\" is not the shard it was asked against")
			}
		case deltaPartial:
			resp := mustDecode(t, deltaFrame)
			want, _ := resp.Get("patch")
			if patch == nil || !bytes.Equal(patch.EncodeBinary(), want.EncodeBinary()) ||
				sh.epoch != next.epoch || sh.gen != next.gen || !bytes.Equal(sh.tree.EncodeBinary(), next.tree.EncodeBinary()) {
				t.Fatalf("memberShard's patch result %s differs from applyDelta's %s", sh.tree.Format(), next.tree.Format())
			}
		default:
			got := mustDecode(t, conduit.AppendRawFrame(nil, sh.node()))
			if sh.tree != nil || patch != nil || sh.epoch != next.epoch || sh.gen != next.gen ||
				!bytes.Equal(got.EncodeBinary(), next.tree.EncodeBinary()) {
				t.Fatalf("memberShard's full answer (%d, %d) %s differs from applyDelta's (%d, %d) %s",
					sh.epoch, sh.gen, got.Format(), next.epoch, next.gen, next.tree.Format())
			}
		}
	}
}

// node is the shard's raw node encoding.
func (s *shard) node() []byte {
	if s.tree == nil {
		return s.raw
	}
	return s.tree.AppendBinary(nil)[4:]
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
