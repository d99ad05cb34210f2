package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/cluster"
	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// startFleet boots n clustered in-proc services: each listens, then joins
// with the others as seeds and fast liveness so tests converge quickly.
func startFleet(t testing.TB, n int) ([]*Service, []string) {
	t.Helper()
	return startFleetOf(t, make([]ServiceConfig, n))
}

// startFleetOf is startFleet with one explicit config per member.
func startFleetOf(t testing.TB, cfgs []ServiceConfig) ([]*Service, []string) {
	t.Helper()
	n := len(cfgs)
	svcs := make([]*Service, n)
	addrs := make([]string, n)
	for i := range svcs {
		svcs[i] = NewService(cfgs[i])
		addr, err := svcs[i].Listen(fmt.Sprintf("inproc://cluster-%s-%d", t.Name(), i))
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	for i, s := range svcs {
		peers := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		err := s.JoinCluster(ClusterConfig{
			SelfID:       fmt.Sprintf("soma-%d", i),
			Peers:        peers,
			PingInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range svcs {
			s.Close()
		}
	})
	waitFleetEpoch(t, svcs, n)
	return svcs, addrs
}

// waitFleetEpoch blocks until every service's ring agrees: `alive` members
// and one shared epoch.
func waitFleetEpoch(t testing.TB, svcs []*Service, alive int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		epochs := map[uint64]bool{}
		ok := true
		for _, s := range svcs {
			e, members := s.ClusterRing()
			if len(members) != alive {
				ok = false
				break
			}
			epochs[e] = true
		}
		if ok && len(epochs) == 1 {
			return
		}
		if time.Now().After(deadline) {
			for i, s := range svcs {
				e, members := s.ClusterRing()
				t.Logf("svc %d: epoch=%x members=%d", i, e, len(members))
			}
			t.Fatal("fleet rings never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// publishFleet spreads count distinct leaves across the fleet via plain
// single-instance clients in round-robin — server-side placement forwards
// each to its owner. Returns the ground-truth leaf values.
func publishFleet(t testing.TB, addrs []string, count int) map[string]float64 {
	t.Helper()
	truth := map[string]float64{}
	clients := make([]*Client, len(addrs))
	for i, a := range addrs {
		c, err := Connect(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	for i := 0; i < count; i++ {
		path := fmt.Sprintf("FLEET/cn%03d/metric", i)
		n := conduit.NewNode()
		n.SetFloat(path, float64(i))
		if err := clients[i%len(clients)].Publish(NSHardware, n); err != nil {
			t.Fatal(err)
		}
		truth[path] = float64(i)
	}
	return truth
}

func checkTruth(t testing.TB, tree *conduit.Node, truth map[string]float64) {
	t.Helper()
	for path, want := range truth {
		got, ok := tree.Float(path)
		if !ok {
			t.Fatalf("leaf %s missing from merged query", path)
		}
		if got != want {
			t.Fatalf("leaf %s = %v, want %v", path, got, want)
		}
	}
}

// TestClusterScatterQuery is the core correctness invariant: no matter which
// instance ingested a leaf and which instance a client asks, soma.query
// answers the union of every shard.
func TestClusterScatterQuery(t *testing.T) {
	_, addrs := startFleet(t, 3)
	truth := publishFleet(t, addrs, 60)

	for _, addr := range addrs {
		c, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := c.Query(NSHardware, "")
		if err != nil {
			t.Fatal(err)
		}
		checkTruth(t, tree, truth)
		c.Close()
	}
}

// TestClusterPlacementSpread checks writes actually shard: with leaf-level
// consistent hashing, 60 distinct leaves published through one instance must
// land (via forwarding) on every instance, not pile up at the entry point.
func TestClusterPlacementSpread(t *testing.T) {
	svcs, addrs := startFleet(t, 3)
	c, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 60; i++ {
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("SPREAD/cn%03d/metric", i), float64(i))
		if err := c.Publish(NSHardware, n); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range svcs {
		in, err := s.instanceFor(NSHardware)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.snapshotTree().NumLeaves(); got == 0 {
			t.Errorf("instance %d holds zero leaves — placement is not spreading writes", i)
		} else {
			t.Logf("instance %d holds %d leaves", i, got)
		}
	}
}

// TestClusterRebalanceHandoff: leaves ingested before the fleet converges
// (owner unreachable → local-ingest fallback) are copied to their owners by
// the epoch-stamped rebalance, and remain query-visible throughout.
func TestClusterRebalanceHandoff(t *testing.T) {
	// Boot one solo service and fill it while it is the whole cluster.
	a := NewService(ServiceConfig{})
	addrA, err := a.Listen(fmt.Sprintf("inproc://handoff-%s-a", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	truth := map[string]float64{}
	ca, err := Connect(addrA, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	for i := 0; i < 40; i++ {
		path := fmt.Sprintf("HANDOFF/cn%03d/metric", i)
		n := conduit.NewNode()
		n.SetFloat(path, float64(i))
		if err := ca.Publish(NSHardware, n); err != nil {
			t.Fatal(err)
		}
		truth[path] = float64(i)
	}

	// Second instance joins; A learns of it via the inbound ping.
	b := NewService(ServiceConfig{})
	addrB, err := b.Listen(fmt.Sprintf("inproc://handoff-%s-b", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.JoinCluster(ClusterConfig{Peers: nil, PingInterval: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := b.JoinCluster(ClusterConfig{Peers: []string{addrA}, PingInterval: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	waitFleetEpoch(t, []*Service{a, b}, 2)

	// Rebalance must copy B's share of the keys over: wait until B's local
	// store holds every leaf the two-member ring assigns to it.
	_, members := a.ClusterRing()
	ring := cluster.NewRing(members, 0)
	wantOnB := 0
	for path := range truth {
		if ring.Owns(addrB, cluster.ShardKey(string(NSHardware), path)) {
			wantOnB++
		}
	}
	if wantOnB == 0 {
		t.Fatal("ring assigned zero keys to the joining member; balance test should have caught this")
	}
	inB, err := b.instanceFor(NSHardware)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		gotOnB := 0
		tree := inB.snapshotTree()
		for path := range truth {
			if ring.Owns(addrB, cluster.ShardKey(string(NSHardware), path)) {
				if _, ok := tree.Float(path); ok {
					gotOnB++
				}
			}
		}
		if gotOnB == wantOnB {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handoff incomplete: B holds %d of its %d owned leaves", gotOnB, wantOnB)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the scattered read still answers the full truth from either side.
	tree, err := ca.Query(NSHardware, "")
	if err != nil {
		t.Fatal(err)
	}
	checkTruth(t, tree, truth)
}

// TestClusterClientRouting drives the shard-routing client: Publish routes
// by ring, Published sums acks, and a plain client dialled to any member reads
// everything back.
func TestClusterClientRouting(t *testing.T) {
	_, addrs := startFleet(t, 3)
	cc, err := ConnectCluster(addrs[0], nil, ClusterClientConfig{RefreshInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	if got := cc.Ring().Len(); got != 3 {
		t.Fatalf("cluster client ring has %d members, want 3", got)
	}

	truth := map[string]float64{}
	for i := 0; i < 60; i++ {
		path := fmt.Sprintf("ROUTE/cn%03d/metric", i)
		n := conduit.NewNode()
		n.SetFloat(path, float64(i))
		if err := cc.Publish(NSHardware, n); err != nil {
			t.Fatal(err)
		}
		truth[path] = float64(i)
	}
	if err := cc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := cc.Published(); got != 60 {
		t.Fatalf("Published() = %d, want 60", got)
	}
	reader, err := Connect(addrs[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	tree, err := reader.Query(NSHardware, "")
	if err != nil {
		t.Fatal(err)
	}
	checkTruth(t, tree, truth)
}

// TestClusterClientAgainstSoloServer: a routing client pointed at an
// unclustered service degrades to a cluster of one.
func TestClusterClientAgainstSoloServer(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen(fmt.Sprintf("inproc://solo-%s", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cc, err := ConnectCluster(addr, nil, ClusterClientConfig{RefreshInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if got := cc.Ring().Len(); got != 1 {
		t.Fatalf("solo ring has %d members, want 1", got)
	}
	n := conduit.NewNode()
	n.SetFloat("SOLO/cn000/metric", 1)
	if err := cc.Publish(NSHardware, n); err != nil {
		t.Fatal(err)
	}
	reader, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	tree, err := reader.Query(NSHardware, "")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Float("SOLO/cn000/metric"); !ok || v != 1 {
		t.Fatalf("solo query = (%v, %v), want (1, true)", v, ok)
	}
}

// TestClusterScatterSeriesAndAlerts: the rollup/alert read surface also
// answers fleet-wide.
func TestClusterScatterSeriesAndAlerts(t *testing.T) {
	_, addrs := startFleet(t, 2)
	c0, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()

	if err := c0.SetAlert(AlertRule{
		NS: NSHardware, Name: "hot", Pattern: "SER/*/temp",
		Op: ">", Threshold: 50, WindowSec: 60, Severity: "warn",
	}); err != nil {
		t.Fatal(err)
	}
	// Distinct keys; placement spreads them across both instances.
	for i := 0; i < 16; i++ {
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("SER/cn%03d/temp", i), 90)
		if err := c0.Publish(NSHardware, n); err != nil {
			t.Fatal(err)
		}
	}

	keys, err := c0.SeriesKeys(NSHardware, "SER/*/temp")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 16 {
		t.Fatalf("scattered SeriesKeys returned %d keys, want 16: %v", len(keys), keys)
	}
	for _, key := range keys {
		se, err := c0.Series(NSHardware, key, Level1s, 0)
		if err != nil {
			t.Fatalf("scattered Series(%s): %v", key, err)
		}
		if len(se.Bucket) == 0 {
			t.Fatalf("scattered Series(%s) returned no buckets", key)
		}
	}

	// The alert rule lives on instance 0's engine but its standings must be
	// visible fleet-wide... the rule only fires for series instance 0 holds;
	// the union still lists the rule itself from any entry point.
	c1, err := Connect(addrs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	rules, _, err := c1.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		if r.Name == "hot" {
			found = true
		}
	}
	if !found {
		t.Fatalf("alert rule installed on instance 0 not visible via instance 1's scattered alert.list: %+v", rules)
	}
}

// TestClusterScatterSeriesOwnerSortsLast: a member that never saw a series
// answers "no such series", and that answer — arriving, in address order,
// ahead of the owner's — must not hide the owner's buckets. With three
// members and the owner sorting last, every entry point either scatters to a
// non-owner first or is one.
func TestClusterScatterSeriesOwnerSortsLast(t *testing.T) {
	svcs, addrs := startFleet(t, 3) // addrs ascend with the index
	c0, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	// Publish distinct keys until placement puts one on the last member.
	var key string
	const samples = 3
	for i := 0; key == "" && i < 64; i++ {
		k := fmt.Sprintf("LAST/cn%03d/temp", i)
		for j := 0; j < samples; j++ {
			n := conduit.NewNode()
			n.SetFloat(k, float64(10*j))
			if err := c0.Publish(NSHardware, n); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svcs[2].QuerySeries(NSHardware, k, Level1s, 0); err == nil {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key out of 64 was placed on the last member")
	}
	for i, addr := range addrs {
		c, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		se, err := c.Series(NSHardware, key, Level1s, 0)
		c.Close()
		if err != nil {
			t.Fatalf("Series(%s) through member %d: %v", key, i, err)
		}
		var count int64
		for _, b := range se.Bucket {
			count += b.Count
		}
		if count != samples {
			t.Fatalf("Series(%s) through member %d counted %d samples, want the owner's %d", key, i, count, samples)
		}
	}
	// A key nobody holds is still "no such series" from every entry point.
	if _, err := c0.Series(NSHardware, "LAST/absent/temp", Level1s, 0); err == nil {
		t.Fatal("Series of an absent key answered without error")
	}
}

// publishLocalTo ingests tree on exactly the member at addr, bypassing
// placement — soma.publish.local never forwards — the way a handoff or an
// owner-unreachable fallback leaves copies of one path on several members.
func publishLocalTo(t testing.TB, addr string, tree *conduit.Node) {
	t.Helper()
	ep, err := mercury.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	req := conduit.NewNode()
	req.SetString("ns", string(NSHardware))
	req.Attach("data", tree)
	if _, err := ep.Call(context.Background(), RPCPublishLocal, req.EncodeBinary()); err != nil {
		t.Fatal(err)
	}
}

// rawQuery sends one soma.query (or any query RPC) and returns the response
// frame as it came off the transport.
func rawQuery(t testing.TB, addr, rpc, path string) ([]byte, error) {
	t.Helper()
	ep, err := mercury.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	req := conduit.NewNode()
	req.SetString("ns", string(NSHardware))
	req.SetString("path", path)
	return ep.Call(context.Background(), rpc, req.EncodeBinary())
}

// TestClusterScatterOverlappingCopies pins the byte-level union against the
// tree merge it replaced. Members hold overlapping copies: one subtree sits
// on two members at once, and one path is a leaf on one member and an object
// on another. Through every member, soma.query and soma.query.delta must
// answer byte for byte what decoding each shard and folding them with
// Node.Merge — local shard first, then peers in address order — encodes to.
// The copies, which agree, read the same from every entry point; the
// conflict resolves by merge order, which is per entry point by design.
func TestClusterScatterOverlappingCopies(t *testing.T) {
	svcs, addrs := startFleet(t, 3) // addrs ascend with the index
	truth := publishFleet(t, addrs, 60)
	copies := conduit.NewNode()
	for i := 0; i < 8; i++ {
		copies.SetFloat(fmt.Sprintf("COPY/cn%03d/metric", i), float64(100+i))
		truth[fmt.Sprintf("COPY/cn%03d/metric", i)] = float64(100 + i)
	}
	copies.SetString("COPY/host", "both")
	publishLocalTo(t, addrs[0], copies)
	publishLocalTo(t, addrs[2], copies)
	leaf := conduit.NewNode()
	leaf.SetFloat("FLIP/x", 5)
	publishLocalTo(t, addrs[1], leaf)
	object := conduit.NewNode()
	object.SetFloat("FLIP/x/y", 7)
	object.Fetch("FLIP/none") // an empty child travels too
	publishLocalTo(t, addrs[2], object)

	var copyTrees []*conduit.Node
	for i, addr := range addrs {
		for _, path := range []string{"", "FLIP", "COPY/cn003", "ABSENT"} {
			// The oracle: this member's shard, then the others in address order.
			want := conduit.NewNode()
			for _, j := range append([]int{i}, otherThan(i, len(svcs))...) {
				shard, err := svcs[j].Query(NSHardware, path)
				if err != nil {
					t.Fatal(err)
				}
				want.Merge(shard)
			}
			env := conduit.NewNode()
			env.SetInt("epoch", 0)
			env.SetInt("gen", 0)
			env.Attach("data", want)
			for _, rpc := range []string{RPCQuery, RPCQueryDelta} {
				got, err := rawQuery(t, addr, rpc, path)
				if err != nil {
					t.Fatalf("%s %q through member %d: %v", rpc, path, i, err)
				}
				if !bytes.Equal(got, env.EncodeBinary()) {
					gt, _ := conduit.DecodeBinary(got)
					t.Fatalf("%s %q through member %d differs from the tree union\n got: %s\nwant: %s",
						rpc, path, i, gt.Format(), env.Format())
				}
			}
			if path == "" {
				checkTruth(t, want, truth)
				sub, _ := want.Get("COPY")
				copyTrees = append(copyTrees, sub)
			}
		}
	}
	for i, sub := range copyTrees {
		if sub == nil || !sub.Equal(copyTrees[0]) {
			t.Fatalf("the agreeing copies read differently through member %d", i)
		}
	}
}

// otherThan lists 0..n-1 without i, ascending — a member's peers in address
// order for fleets whose addresses ascend with the index.
func otherThan(i, n int) []int {
	out := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// TestClusterScatterMalformedPeer: a peer's answer is network input. One that
// does not validate fails the whole read — no partial union — and the error
// names the peer it came from.
func TestClusterScatterMalformedPeer(t *testing.T) {
	svcs, addrs := startFleet(t, 3)
	publishFleet(t, addrs, 30)
	for name, frame := range map[string][]byte{
		"truncated":      []byte("CDT\x01\x01\x03\x04data\x01\x05"),
		"trailing bytes": append(conduit.NewNode().EncodeBinary(), 0),
		"bad magic":      []byte("nope"),
	} {
		svcs[2].Engine().Register(RPCQueryLocal, func(context.Context, []byte) ([]byte, error) {
			return frame, nil
		})
		for _, rpc := range []string{RPCQuery, RPCQueryDelta} {
			out, err := rawQuery(t, addrs[0], rpc, "")
			if err == nil {
				t.Fatalf("%s: %s answered %d bytes with a malformed peer frame in the scatter", name, rpc, len(out))
			}
			if !strings.Contains(err.Error(), addrs[2]) {
				t.Fatalf("%s: error does not name the peer %s: %v", name, addrs[2], err)
			}
		}
	}
	// The member whose own handler is broken still reads its healthy peers.
	if _, err := rawQuery(t, addrs[2], RPCQuery, ""); err != nil {
		t.Fatalf("read through the member with the broken .local handler: %v", err)
	}
}

// TestClusterScatterQueryTraced: a scattered read shows up in the trace
// store like a local one — the entry member's soma.query.handler span, the
// peers' handler spans beneath it, and the union as a leaf span of its own.
func TestClusterScatterQueryTraced(t *testing.T) {
	defer keepAllTraces()()
	_, addrs := startFleet(t, 3)
	publishFleet(t, addrs, 30)
	c, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, handler := range []string{"soma.query.delta.handler", "soma.query.handler"} {
		if handler == "soma.query.handler" {
			// The plain soma.query a pre-delta client sends, under the root
			// span such a client would have opened.
			ctx, sp := telemetry.StartSpan(context.Background(), "soma.client.query")
			req := conduit.NewNode()
			req.SetString("ns", string(NSHardware))
			req.SetString("path", "FLEET")
			_, err = c.ep.Call(ctx, RPCQuery, req.EncodeBinary())
			sp.End()
		} else {
			_, err = c.Query(NSHardware, "FLEET")
		}
		if err != nil {
			t.Fatal(err)
		}
		var tr telemetry.Trace
		for _, sum := range telemetry.Default().Traces().List() {
			if sum.Root != "soma.client.query" {
				continue
			}
			if got, ok := telemetry.Default().Traces().Get(sum.TraceID); ok && got.Start.After(tr.Start) {
				tr = got
			}
		}
		byID := map[uint64]telemetry.SpanSnapshot{}
		for _, sp := range tr.Spans {
			byID[sp.SpanID] = sp
		}
		var entry, peers, merges int
		for _, sp := range tr.Spans {
			parent := byID[sp.Parent].Name
			switch {
			case sp.Name == handler && parent == "soma.client.query":
				entry++
			case sp.Name == "soma.query.handler" && parent == handler:
				peers++ // soma.query.local on a peer, under the entry's span
			case sp.Name == "cluster.scatter.merge" && parent == handler:
				merges++
			}
		}
		if entry != 1 || peers != 2 || merges != 1 {
			t.Fatalf("%s: trace has %d entry handler, %d peer handler and %d merge spans, want 1/2/1: %+v",
				handler, entry, peers, merges, tr.Spans)
		}
	}
}

// BenchmarkScatterGatherQuery measures a fleet-wide soma.query against a
// 3-instance in-proc cluster holding the 20 000-leaf LOAD tree the cluster3
// workload reads (LOAD/cn%05d/s%02d, placed leaf by leaf) — the benchdiff gate
// for the read fan-out path. The tree is quiet, so each member's shard frame
// is cached and an iteration is the scatter, the union at the member asked,
// and the client's decode of the answer.
func BenchmarkScatterGatherQuery(b *testing.B) {
	_, addrs := startFleet(b, 3)
	const leaves = 20000
	c, err := Connect(addrs[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{})
	for p := 0; p < leaves; p++ {
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("LOAD/cn%05d/s%02d", p/16, p%16), float64(p))
		if err := c.Publish(NSHardware, n); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	tree, err := c.Query(NSHardware, "LOAD")
	if err != nil {
		b.Fatal(err)
	}
	if got := tree.NumLeaves(); got != leaves {
		b.Fatalf("scattered read holds %d leaves, want %d", got, leaves)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(NSHardware, "LOAD"); err != nil {
			b.Fatal(err)
		}
	}
}
