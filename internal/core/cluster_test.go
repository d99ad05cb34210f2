package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// A key nobody holds is still "no such series" from every entry point,
	// ErrNoSeries over the wire as in process.
	for i, addr := range addrs {
		c, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Series(NSHardware, "LAST/absent/temp", Level1s, 0)
		c.Close()
		if !errors.Is(err, ErrNoSeries) {
			t.Fatalf("Series of an absent key through member %d: %v, want ErrNoSeries", i, err)
		}
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

// TestClusterScatterOverlappingCopies pins the one cluster union — the
// gather memo of the member asked — against the tree merge. Members hold
// overlapping copies: one subtree sits on two members at once, and one path
// is a leaf on one member and an object on another. Through every member,
// soma.query and soma.query.delta must each answer, under a stamp of that
// member's own, data byte-identical to unionOracle: each shard folded with
// Node.Merge, local shard first, then peers in address order. The copies,
// which agree, read the same from every entry point; the conflict resolves by
// merge order, which is per entry point by design.
func TestClusterScatterOverlappingCopies(t *testing.T) {
	svcs, addrs := startFleet(t, 3)
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
			want := unionOracle(t, svcs, addrs, i, path)
			for _, rpc := range []string{RPCQuery, RPCQueryDelta} {
				got, err := rawQuery(t, addr, rpc, path)
				if err != nil {
					t.Fatalf("%s %q through member %d: %v", rpc, path, i, err)
				}
				epoch, _, data := fullData(t, got)
				if epoch == 0 || !bytes.Equal(data, want) {
					t.Fatalf("%s %q through member %d is not the stamped tree union\n got: %s\nwant: %s",
						rpc, path, i, mustDecode(t, got).Format(), mustDecode(t, want).Format())
				}
			}
			if path == "" {
				union := mustDecode(t, want)
				checkTruth(t, union, truth)
				sub, _ := union.Get("COPY")
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

// fullData reads a full soma.query* answer: its stamp, and its data as a
// frame of its own.
func fullData(t testing.TB, frame []byte) (epoch, gen int64, data []byte) {
	t.Helper()
	var f [5][]byte
	if err := conduit.SliceFields(frame, answerFields, f[:]); err != nil {
		t.Fatal(err)
	}
	if f[2] != nil || f[3] != nil || f[4] == nil {
		t.Fatalf("not a full answer: %s", mustDecode(t, frame).Format())
	}
	epoch, _ = conduit.RawInt(f[0])
	gen, _ = conduit.RawInt(f[1])
	return epoch, gen, conduit.AppendRawFrame(nil, f[4])
}

// TestClusterQueryOneStamp: soma.query and soma.query.delta are one RPC,
// solo and through every member of a fleet. With nothing published in
// between, the stamp of a soma.query answer presented to soma.query.delta —
// or to soma.query itself — is answered "unchanged"; after one publish, both
// names through one member answer the same new stamp and the same data.
func TestClusterQueryOneStamp(t *testing.T) {
	_, solo := startSolo(t, ServiceConfig{})
	publishFleet(t, []string{solo}, 12)
	_, addrs := startFleet(t, 3)
	publishFleet(t, addrs, 12)
	query := func(addr, rpc string, epoch, gen int64) []byte {
		t.Helper()
		req := conduit.NewNode()
		req.SetString("ns", string(NSHardware))
		req.SetString("path", "FLEET")
		if epoch != 0 {
			req.SetInt("epoch", epoch)
			req.SetInt("gen", gen)
		}
		out, err := rawCall(t, addr, rpc, req)
		if err != nil {
			t.Fatalf("%s through %s: %v", rpc, addr, err)
		}
		return out
	}
	for i, addr := range append([]string{solo}, addrs...) {
		epoch, gen, _ := fullData(t, query(addr, RPCQuery, 0, 0))
		if epoch == 0 {
			t.Fatalf("entry %d: soma.query is unstamped", i)
		}
		for _, rpc := range []string{RPCQueryDelta, RPCQuery} {
			if resp := mustDecode(t, query(addr, rpc, epoch, gen)); !resp.Has("unchanged") {
				t.Fatalf("entry %d: %s answered soma.query's stamp with %s, want unchanged", i, rpc, resp.Format())
			}
		}
		// Placed on its owner, so no rebalance handoff moves it meanwhile.
		c, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		leaf := conduit.NewNode()
		leaf.SetFloat(fmt.Sprintf("FLEET/new%d/metric", i), float64(i))
		err = c.Publish(NSHardware, leaf)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		e1, g1, d1 := fullData(t, query(addr, RPCQuery, 0, 0))
		e2, g2, d2 := fullData(t, query(addr, RPCQueryDelta, 0, 0))
		if e1 != e2 || g1 != g2 || !bytes.Equal(d1, d2) {
			t.Fatalf("entry %d: soma.query answers (%d, %d) %s, soma.query.delta (%d, %d) %s",
				i, e1, g1, mustDecode(t, d1).Format(), e2, g2, mustDecode(t, d2).Format())
		}
		if e1 == epoch && g1 == gen {
			t.Fatalf("entry %d: a publish left the stamp at (%d, %d)", i, e1, g1)
		}
		if !mustDecode(t, d1).Has(fmt.Sprintf("new%d/metric", i)) {
			t.Fatalf("entry %d: the answer lacks the published leaf", i)
		}
	}
}

// TestClusterScatterMalformedPeer: a peer's answer is network input. One that
// does not validate fails the whole read — no partial union — and the error
// names the peer it came from. So does an answer that validates but does not
// apply to the memo the member asked keeps of that peer's shard — a patch
// whose count is wrong, "unchanged" to a gather that carried no stamp — once
// the member has re-asked with no stamp, the way a client resyncs. That holds
// by either query name, both being one RPC. A frame whose "unchanged" is
// false or not a bool is a full answer of its data, to a client and to the
// gather alike: the union reads that data as the peer's shard. A stamped
// client polling through the member is answered nothing wrong meanwhile.
func TestClusterScatterMalformedPeer(t *testing.T) {
	svcs, addrs := startFleet(t, 3)
	publishFleet(t, addrs, 30)
	c, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before, err := c.Query(NSHardware, "FLEET")
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"truncated":          []byte("CDT\x01\x01\x03\x04data\x01\x05"),
		"trailing bytes":     append(conduit.NewNode().EncodeBinary(), 0),
		"bad magic":          []byte("nope"),
		"patch of bad count": rawDelta(7, 3, 99, "cn001"),
		"unchanged, unasked": unchangedAnswer(7, 3).EncodeBinary(),
	} {
		hostile := func(context.Context, []byte) ([]byte, error) { return frame, nil }
		svcs[2].Engine().Register(RPCQueryLocal, hostile)
		svcs[2].Engine().Register(RPCQueryDeltaLocal, hostile)
		for _, rpc := range []string{RPCQuery, RPCQueryDelta} {
			out, err := rawQuery(t, addrs[0], rpc, "")
			if err == nil {
				t.Fatalf("%s: %s answered %d bytes with a malformed peer frame in the scatter", name, rpc, len(out))
			}
			if !strings.Contains(err.Error(), addrs[2]) {
				t.Fatalf("%s: error does not name the peer %s: %v", name, addrs[2], err)
			}
		}
		if _, err := c.Query(NSHardware, "FLEET"); err == nil || !strings.Contains(err.Error(), addrs[2]) {
			t.Fatalf("%s: a stamped poll answered with %v, want the error naming the peer", name, err)
		}
	}
	for name, unchanged := range map[string]func(*conduit.Node){
		"unchanged: false": func(n *conduit.Node) { n.SetBool("unchanged", false) },
		"unchanged: 1":     func(n *conduit.Node) { n.SetInt("unchanged", 1) },
	} {
		resp := conduit.NewNode()
		resp.SetInt("epoch", 7)
		resp.SetInt("gen", 3)
		unchanged(resp)
		resp.SetFloat("data/cn900/metric", 900)
		frame := resp.EncodeBinary()
		hostile := func(context.Context, []byte) ([]byte, error) { return frame, nil }
		svcs[2].Engine().Register(RPCQueryLocal, hostile)
		svcs[2].Engine().Register(RPCQueryDeltaLocal, hostile)
		plain, err := rawQuery(t, addrs[0], RPCQuery, "FLEET")
		if err != nil {
			t.Fatalf("%s: soma.query: %v", name, err)
		}
		want, _ := mustDecode(t, plain).Get("data")
		if !want.Has("cn900/metric") {
			t.Fatalf("%s: the union lacks the peer's data: %s", name, want.Format())
		}
		for _, poll := range []string{"stamped", "again"} {
			got, err := c.Query(NSHardware, "FLEET")
			if err != nil {
				t.Fatalf("%s: %s poll: %v", name, poll, err)
			}
			if !bytes.Equal(got.EncodeBinary(), want.EncodeBinary()) {
				t.Fatalf("%s: %s poll read\n%s\nwant soma.query's answer\n%s", name, poll, got.Format(), want.Format())
			}
		}
	}
	// The member whose own handlers are broken still reads its healthy peers.
	for _, rpc := range []string{RPCQuery, RPCQueryDelta} {
		if _, err := rawQuery(t, addrs[2], rpc, ""); err != nil {
			t.Fatalf("%s through the member with the broken .local handlers: %v", rpc, err)
		}
	}
	// Healed, the stamped client reads the tree it read before.
	for i := range rpcTable {
		if row := &rpcTable[i]; row.name == RPCQuery || row.name == RPCQueryDelta {
			svcs[2].Engine().RegisterOwned(row.name+".local", svcs[2].serve(row, true))
		}
	}
	after, err := c.Query(NSHardware, "FLEET")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.EncodeBinary(), before.EncodeBinary()) {
		t.Fatalf("after the peer healed the client reads\n%s\nwant\n%s", after.Format(), before.Format())
	}
}

// TestClusterQueryDeltaChildless: an object without children, which no
// member's snapshot holds, means "nothing here" to the byte union of full
// answers (conduit.MergeNodes) and to Node.Merge, but would survive the
// gather's tree fold. A peer's full answer holding one is kept raw and
// unioned as bytes, and its tree is refused when it is decoded; a patch
// holding one is refused outright.
func TestClusterQueryDeltaChildless(t *testing.T) {
	frame := func(field string, names ...string) []byte {
		b := conduit.AppendRawFrame(nil, nil)
		b = conduit.AppendRawObject(b, 5)
		b = conduit.AppendRawInt(conduit.AppendRawName(b, "epoch"), 5)
		b = conduit.AppendRawInt(conduit.AppendRawName(b, "gen"), 2)
		b = conduit.AppendRawInt(conduit.AppendRawName(b, "base"), 1)
		b = conduit.AppendRawInt(conduit.AppendRawName(b, "count"), int64(len(names)))
		b = conduit.AppendRawObject(conduit.AppendRawName(b, field), len(names))
		for _, name := range names {
			b = conduit.AppendRawObject(conduit.AppendRawName(b, name), 0)
		}
		return b
	}
	held := conduit.NewNode()
	held.SetFloat("a/x", 1)
	prev := &shard{deltaMemo: deltaMemo{epoch: 5, gen: 1, tree: held}}
	if _, _, _, err := memberShard(prev, frame("patch", "a")); !errors.Is(err, errChildless) {
		t.Fatalf("a patch holding an object without children: %v, want errChildless", err)
	}
	full, kind, _, err := memberShard(prev, frame("data", "a"))
	if err != nil || kind != deltaFull || full.tree != nil {
		t.Fatalf("a full answer: kind %v, err %v; want it kept raw", kind, err)
	}
	union, err := conduit.MergeNodes(nil, [][]byte{full.node()})
	if err != nil || !bytes.Equal(union, []byte{byte(conduit.KindObject), 1, 1, 'a', byte(conduit.KindEmpty)}) {
		t.Fatalf("the raw union is % x (%v), want {a: empty}", union, err)
	}
	if err := full.decode(); !errors.Is(err, errChildless) {
		t.Fatalf("decoding it: %v, want errChildless", err)
	}
}

// TestClusterScatterQueryTraced: a scattered read shows up in the trace
// store like a local one, by either query name — the entry member's handler
// span, the peers' handler spans (the name's .local twin) beneath it, and
// the gather's merge as a leaf span of its own.
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
			// The unstamped soma.query a pre-delta client sends, under the
			// root span such a client would have opened.
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
			if got, ok := telemetry.Default().Traces().Get(uint64(sum.TraceID)); ok && got.Start.After(tr.Start) {
				tr = got
			}
		}
		byID := map[telemetry.ID]telemetry.SpanSnapshot{}
		for _, sp := range tr.Spans {
			byID[sp.SpanID] = sp
		}
		var entry, peers, merges int
		for _, sp := range tr.Spans {
			parent := byID[sp.Parent].Name
			switch {
			case sp.Name == handler && parent == "soma.client.query":
				entry++
			case sp.Name == handler && parent == handler:
				peers++ // the row's .local name on a peer, under the entry's span
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

// BenchmarkScatterGatherQuery measures a fleet-wide unstamped soma.query
// against a 3-instance in-proc cluster holding the 20 000-leaf LOAD tree the
// cluster3 workload reads (LOAD/cn%05d/s%02d) — the benchdiff gate for the
// read fan-out path. The tree is quiet, so an iteration is the gather at the
// member asked — every member answers "unchanged" to the stamp its memo
// holds — the byte union of the shards the memo keeps raw (MergeNodes), and
// the client's decode of the whole answer. It calls the RPC itself:
// Client.Query presents its stamp, which a quiet tree answers "unchanged".
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
	if got := plainQuery(b, c, "LOAD").NumLeaves(); got != leaves {
		b.Fatalf("scattered read holds %d leaves, want %d", got, leaves)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plainQuery(b, c, "LOAD")
	}
}

// plainQuery asks soma.query for path in hardware through c, with no stamp,
// and decodes the answer's data.
func plainQuery(tb testing.TB, c *Client, path string) *conduit.Node {
	req := conduit.NewNode()
	req.SetString("ns", string(NSHardware))
	req.SetString("path", path)
	out, err := c.ep.Call(context.Background(), RPCQuery, req.EncodeBinary())
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		tb.Fatal(err)
	}
	data, _ := resp.Get("data")
	return data
}

// BenchmarkScatterGatherQueryDelta models the cluster3 workload's read: the
// LOAD tree of 1 250 hosts × 16 leaves placed leaf by leaf over a 3-instance
// in-proc cluster, a twentieth of the hosts rewritten between reads (each
// member's snapshot rebuilt outside the timer too), read through member 0.
// "patch" is Client.Query — member 0 gathers each member's changes since its
// stamp, re-merges the changed hosts and answers the client's stamp with a
// patch it grafts — and "full" an unstamped soma.query of the same tree:
// the same gather of every member's changes, then the whole union encoded
// from the member's shards and the client's decode of it.
func BenchmarkScatterGatherQueryDelta(b *testing.B) {
	const hosts, leaves = 1250, 16
	const rewrite = hosts / 20
	svcs, addrs := startFleet(b, 3)
	cc, err := ConnectCluster(addrs[0], nil, ClusterClientConfig{Batch: &BatchConfig{}, RefreshInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	next, v := 0, 0
	publishHosts := func(n int) {
		for ; n > 0; n-- {
			for s := 0; s < leaves; s++ {
				leaf := conduit.NewNode()
				leaf.SetFloat(fmt.Sprintf("LOAD/cn%05d/s%02d", next%hosts, s), float64(v))
				if err := cc.Publish(NSHardware, leaf); err != nil {
					b.Fatal(err)
				}
			}
			next, v = next+1, v+1
		}
		if err := cc.Flush(); err != nil {
			b.Fatal(err)
		}
		for _, s := range svcs {
			s.instances[NSHardware].currentSnapshot()
		}
	}
	publishHosts(hosts)
	c, err := Connect(addrs[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	read := func(b *testing.B, query func() *conduit.Node) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			publishHosts(rewrite)
			b.StartTimer()
			if tree := query(); tree.NumChildren() != hosts {
				b.Fatalf("read holds %d hosts, want %d", tree.NumChildren(), hosts)
			}
		}
	}
	b.Run("patch", func(b *testing.B) {
		if _, err := c.Query(NSHardware, "LOAD"); err != nil {
			b.Fatal(err)
		}
		partial := c.DeltaStats().Partial
		read(b, func() *conduit.Node {
			tree, err := c.Query(NSHardware, "LOAD")
			if err != nil {
				b.Fatal(err)
			}
			return tree
		})
		b.ReportMetric(float64(c.DeltaStats().Partial-partial)/float64(b.N), "patches/op")
	})
	b.Run("full", func(b *testing.B) {
		read(b, func() *conduit.Node { return plainQuery(b, c, "LOAD") })
	})
}

// unionOracle is the reference a clustered read of path in hardware through
// the member svcs[at] is checked against, built the way the product never
// builds it: every member's Service.Query shard in merge order — the member
// asked first, then its peers by address — folded with Node.Merge and
// encoded. svcs and addrs list the live members.
func unionOracle(t testing.TB, svcs []*Service, addrs []string, at int, path string) []byte {
	t.Helper()
	order := make([]int, 0, len(svcs))
	for j := range svcs {
		if j != at {
			order = append(order, j)
		}
	}
	sort.Slice(order, func(a, b int) bool { return addrs[order[a]] < addrs[order[b]] })
	union := conduit.NewNode()
	for _, j := range append([]int{at}, order...) {
		shard, err := svcs[j].Query(NSHardware, path)
		if err != nil {
			t.Fatal(err)
		}
		union.Merge(shard)
	}
	return union.EncodeBinary()
}

// fleetStamps is the (epoch, gen) stamp of every member's current snapshot
// of the hardware namespace. When it reads the same before and after a poll,
// no publish, handoff or reset reached any member in between: each member
// answered the poll from the snapshot an oracle beside it reads.
func fleetStamps(svcs []*Service) [][2]uint64 {
	out := make([][2]uint64, len(svcs))
	for i, s := range svcs {
		sn := s.instances[NSHardware].currentSnapshot()
		out[i] = [2]uint64{sn.epoch, sn.gen}
	}
	return out
}

// clusterDeltaOp is one random step of TestClusterQueryDeltaMatchesUnion,
// against the live members svcs (addrs).
func clusterDeltaOp(t *testing.T, rng *rand.Rand, svcs []*Service, addrs []string, hosts, step int) {
	t.Helper()
	n := conduit.NewNode()
	switch r := rng.Intn(100); {
	case r < 55: // one leaf, placed on its owner
		n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", rng.Intn(hosts), rng.Intn(6)), float64(step))
	case r < 65: // wide: placed as a unit by its first leaf
		for h := 0; h < hosts; h++ {
			if rng.Intn(3) == 0 {
				n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", h, rng.Intn(6)), float64(step))
			}
		}
	case r < 77: // one host's copy on two members, bypassing placement
		for s := 0; s < 3; s++ {
			n.SetFloat(fmt.Sprintf("LOAD/cn%02d/s%d", rng.Intn(hosts), s), float64(step))
		}
		for _, i := range rng.Perm(len(addrs))[:2] {
			publishLocalTo(t, addrs[i], n)
		}
		return
	case r < 85: // a leaf over an object: a host becomes a value
		n.SetFloat(fmt.Sprintf("LOAD/cn%02d", rng.Intn(hosts)), float64(step))
	case r < 88: // a leaf over the queried path itself
		n.SetFloat("LOAD", float64(step))
	case r < 91: // one member forgets its shard
		if err := svcs[rng.Intn(len(svcs))].ResetNamespace(NSHardware); err != nil {
			t.Fatal(err)
		}
		return
	default: // a string leaf
		n.SetString(fmt.Sprintf("LOAD/cn%02d/state", rng.Intn(hosts)), fmt.Sprint("s", step))
	}
	if err := svcs[rng.Intn(len(svcs))].Publish(NSHardware, n, 0); err != nil {
		t.Fatal(err)
	}
}

// TestClusterQueryDeltaMatchesUnion is the differential test of the stamped
// cluster read: seeded random steps against a 3-member in-proc fleet — placed
// single-leaf and wide publishes, one host's copy on two members, leaf↔object
// flips at a host and at the queried path, host names the fleet has not held,
// a reset of one member's shard, and member 2 stopped with a fresh member
// joining in its place — while two clients poll LOAD through member 0 out of
// phase and one polls it through member 1. After every poll the client's
// tree must encode byte for byte like unionOracle through the same member,
// taken just after it. A poll is only judged when no member's snapshot stamp
// moved across it (fleetStamps). Each member hands the leaves it holds but
// does not own to their owners in the background, after the fleet forms and
// after every membership change, and a gather asks each member at its own
// moment: two handoffs that land on two members during one poll can leave
// the union the same before and after it while the gather saw one member
// before its handoff and the other after.
func TestClusterQueryDeltaMatchesUnion(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			svcs, addrs := startFleet(t, 3)
			clients := make([]*Client, 3)
			for i, at := range []int{0, 0, 1} {
				c, err := Connect(addrs[at], nil)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			check := func(who, at, step int) {
				t.Helper()
				for try := 0; ; try++ {
					stamps := fleetStamps(svcs)
					tree, _, err := clients[who].QueryDelta(NSHardware, "LOAD")
					if err != nil {
						t.Fatalf("step %d: client %d: %v", step, who, err)
					}
					after := unionOracle(t, svcs, addrs, at, "LOAD")
					if !slices.Equal(stamps, fleetStamps(svcs)) && try < 100 {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					if got := tree.EncodeBinary(); !bytes.Equal(got, after) {
						t.Fatalf("step %d: client %d through member %d differs from the union oracle:\n got %s\nwant %s",
							step, who, at, tree.Format(), mustDecode(t, after).Format())
					}
					return
				}
			}
			rng := rand.New(rand.NewSource(seed))
			hosts := 8
			partial := telScatterPartial.Value()
			for step := 0; step < 300; step++ {
				switch step {
				case 120: // member 2 stops; the fleet goes on as two
					svcs[2].Close()
					svcs, addrs = svcs[:2], addrs[:2]
					waitFleetEpoch(t, svcs, 2)
				case 160: // a fresh member joins in its place
					s := NewService(ServiceConfig{})
					addr, err := s.Listen(fmt.Sprintf("inproc://cluster-%s-rejoined", t.Name()))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { s.Close() })
					if err := s.JoinCluster(ClusterConfig{SelfID: "soma-2b", Peers: addrs, PingInterval: 20 * time.Millisecond}); err != nil {
						t.Fatal(err)
					}
					svcs, addrs = append(svcs, s), append(addrs, addr)
					waitFleetEpoch(t, svcs, 3)
				}
				if step%10 == 9 && hosts < 40 {
					hosts++ // a host name the fleet has not held
				}
				for k := rng.Intn(3); k >= 0; k-- {
					clusterDeltaOp(t, rng, svcs, addrs, hosts, step)
				}
				// Client 1 polls every other step, ahead of client 0: its stamp
				// is then the older of the two unions member 0 keeps as bases.
				if step%2 == 1 {
					check(1, 0, step)
				}
				check(0, 0, step)
				if step%3 == 0 {
					check(2, 1, step)
				}
			}
			// Client 2's member gathers LOAD from the same members as
			// member 0, three times less often: their polls retire the bases
			// its stamps need, so it may well be answered in full throughout.
			for i, c := range clients[:2] {
				if st := c.DeltaStats(); st.Partial == 0 {
					t.Fatalf("client %d got no partial answers (%+v): the test proved nothing", i, st)
				}
			}
			if telScatterPartial.Value() == partial {
				t.Fatal("no member answered a gather with a patch")
			}
		})
	}
}

// TestClusterQueryDeltaConcurrentPollers runs pollers of one path — two
// sharing a client, one on a client of its own, all through member 0, so
// they share its gather memo — beside publishers, under -race in
// verify-stream. Every member holds every host, so a member whose few hosts
// changed since its stamp answers the gather with a patch, and some must.
// Every leaf is written by one publisher with rising values, so a poller's
// successive trees may only move forward; once the publishers stop, each
// poller's next tree must equal unionOracle, and so must its next after each
// of two changes on the member merged last, which it answers with a patch.
func TestClusterQueryDeltaConcurrentPollers(t *testing.T) {
	svcs, addrs := startFleet(t, 3)
	const publishers, hosts = 2, 24
	for i, addr := range addrs {
		n := conduit.NewNode()
		for h := 0; h < hosts; h++ {
			n.SetFloat(fmt.Sprintf("LOAD/cn%02d/m%d", h, i), 0)
		}
		publishLocalTo(t, addr, n)
	}
	partial := telScatterPartial.Value()
	shared, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	own, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer own.Close()
	pollers := []*Client{shared, shared, own}
	stop := make(chan struct{})
	// The publishers start once every poller holds a stamp, so the gathers
	// beside them are stamped and a member may answer with a patch.
	var pubs, polls, primed sync.WaitGroup
	primed.Add(len(pollers))
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			primed.Wait()
			for v := 1; v <= 300; v++ {
				n := conduit.NewNode()
				n.SetFloat(fmt.Sprintf("LOAD/cn%02d/p%d", (v*7+p)%hosts, p), float64(v))
				if err := svcs[(v+p)%len(svcs)].Publish(NSHardware, n, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	errs := make(chan error, len(pollers))
	for _, c := range pollers {
		polls.Add(1)
		go func(c *Client) {
			defer polls.Done()
			var prev *conduit.Node
			for i := 0; ; i++ {
				if i >= 50 {
					select {
					case <-stop:
						return
					default:
					}
				}
				tree, _, err := c.QueryDelta(NSHardware, "LOAD")
				if i == 0 {
					primed.Done()
				}
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
		}(c)
	}
	pubs.Wait()
	close(stop)
	polls.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if telScatterPartial.Value() == partial {
		t.Fatal("no member answered a gather with a patch: the test proved nothing")
	}
	settled := func(when string) {
		t.Helper()
		want := unionOracle(t, svcs, addrs, 0, "LOAD")
		for i, c := range pollers {
			tree, err := c.Query(NSHardware, "LOAD")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tree.EncodeBinary(), want) {
				t.Fatalf("poller %d's tree %s differs from the union oracle", i, when)
			}
		}
	}
	settled("once the publishers stopped")
	// Twice: the first change after a gather that kept a full answer raw
	// rebuilds the union whole; the second is re-merged from the patch alone.
	order := svcs[0].cl.Load().mergeOrder()
	for v := 1; v <= 2; v++ {
		n := conduit.NewNode()
		n.SetFloat("LOAD/cn00/last", float64(v))
		publishLocalTo(t, order[len(order)-1], n)
		partial = telScatterPartial.Value()
		settled(fmt.Sprintf("after change %d on the member merged last", v))
		if telScatterPartial.Value() == partial {
			t.Fatalf("the member merged last did not answer change %d with a patch", v)
		}
	}
}

// TestClusterQueryDeltaPatchMinimal: through a clustered member, after k of
// the union's N children are rewritten since a stamp, over one gather or
// several, the patch to that stamp carries exactly those k — nothing an
// older gather re-merged, nothing untouched. Every host is one leaf, placed
// on its owner both times it is written, so no member's child names change
// and no gather after the first patchable one rebuilds.
func TestClusterQueryDeltaPatchMinimal(t *testing.T) {
	svcs, addrs := startFleet(t, 3)
	for h := 0; h < 48; h++ {
		publishLeaf(t, svcs[0], NSHardware, fmt.Sprintf("LOAD/cn%02d/s1", h), 0)
	}
	epoch, g0 := stamp(stampedPoll(t, addrs[0], "LOAD", 0, 0))
	// The first change after a run of full answers rebuilds the union.
	rewrite(t, svcs[1], 1, "cn00")
	resp := stampedPoll(t, addrs[0], "LOAD", epoch, g0)
	if !resp.Has("data") {
		t.Fatalf("the first change after full answers got %s, want a full answer", resp.Format())
	}
	_, g1 := stamp(resp)
	rewrite(t, svcs[1], 2, "cn01", "cn02", "cn03")
	resp = stampedPoll(t, addrs[0], "LOAD", epoch, g1)
	checkPatch(t, resp, "cn01", "cn02", "cn03")
	_, g2 := stamp(resp)
	rewrite(t, svcs[2], 3, "cn03", "cn10")
	resp = stampedPoll(t, addrs[0], "LOAD", epoch, g2)
	checkPatch(t, resp, "cn03", "cn10")
	_, g3 := stamp(resp)
	rewrite(t, svcs[0], 4, "cn20")
	stampedPoll(t, addrs[0], "LOAD", epoch, g3) // one more gather
	rewrite(t, svcs[0], 5, "cn21")
	checkPatch(t, stampedPoll(t, addrs[0], "LOAD", epoch, g3), "cn20", "cn21")
	checkPatch(t, stampedPoll(t, addrs[0], "LOAD", epoch, g2), "cn03", "cn10", "cn20", "cn21")
	checkPatch(t, stampedPoll(t, addrs[0], "LOAD", epoch, g1), "cn01", "cn02", "cn03", "cn10", "cn20", "cn21")
	if resp := stampedPoll(t, addrs[0], "LOAD", epoch, g0); !resp.Has("data") {
		t.Fatalf("a stamp from before the union's rebuild got %s, want the full answer", resp.Format())
	}
}
