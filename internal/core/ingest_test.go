package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// pubCase is one (namespace, tree) publish of an entry-point case.
type pubCase struct {
	ns   Namespace
	tree *conduit.Node
}

// observed is everything a publish leaves behind that a reader can see.
type observed struct {
	Query   map[Namespace]string // soma.query "" per namespace, formatted
	Series  map[string]Series    // "<ns> <key> <level>" → soma.series answer
	Alerts  []AlertState
	Pending map[Namespace][]string // the pending records decoded and formatted, in arrival order
	Records map[Namespace][][]byte // the pending records' frames, in arrival order
	Updates []string               // what a Client.Subscribe consumer decoded, in order
}

// observeRuns numbers observe's services: several run inside one test, and
// inproc listen names are process-global.
var observeRuns atomic.Int64

// observe publishes pubs into a fresh default-config service through send
// and collects what readers then see. The service clock is pinned so
// arrival-stamped samples land in the same buckets on every run.
func observe(t *testing.T, pubs []pubCase, send func(t *testing.T, svc *Service, addr string, pubs []pubCase)) observed {
	t.Helper()
	clock := &fakeClock{}
	clock.set(100)
	svc := NewService(ServiceConfig{Clock: clock})
	defer svc.Close()
	addr, err := svc.Listen(fmt.Sprintf("inproc://entry-%d", observeRuns.Add(1)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetAlert(AlertRule{Name: "hot", NS: NSHardware, Pattern: "PROC/*/CPU Util", Op: ">", Threshold: 90, WindowSec: 5}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := c.Subscribe(ctx, "", "")
	if err != nil {
		t.Fatal(err)
	}

	send(t, svc, addr, pubs)

	out := observed{Query: map[Namespace]string{}, Series: map[string]Series{}, Pending: map[Namespace][]string{},
		Records: map[Namespace][][]byte{}}
	for len(out.Updates) < len(pubs) {
		select {
		case u := <-sub.C:
			out.Updates = append(out.Updates, fmt.Sprintf("%s t=%g alert=%v\n%s", u.NS, u.Time, u.Alert, u.Tree.Format()))
		case <-time.After(5 * time.Second):
			t.Fatalf("subscriber received %d of %d updates", len(out.Updates), len(pubs))
		}
	}
	// The pending records first: the queries below fold them away.
	for _, ns := range Namespaces {
		for _, rec := range pendingRecords(svc.instances[ns]) {
			tree, err := conduit.DecodeBinary(rec.enc)
			if err != nil {
				t.Fatal(err)
			}
			out.Pending[ns] = append(out.Pending[ns], tree.Format())
			out.Records[ns] = append(out.Records[ns], rec.enc)
		}
	}
	for _, ns := range Namespaces {
		tree, err := c.Query(ns, "")
		if err != nil {
			t.Fatal(err)
		}
		out.Query[ns] = tree.Format()
		keys, err := c.SeriesKeys(ns, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			for _, level := range []SeriesLevel{LevelRaw, Level1s, Level10s} {
				se, err := c.Series(ns, key, level, 0)
				if err != nil {
					t.Fatal(err)
				}
				out.Series[fmt.Sprintf("%s %s %s", ns, key, level)] = se
			}
		}
	}
	if _, out.Alerts, err = c.Alerts(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The three wire entry points, plus the in-process tree publish as the
// reference the wire paths are held to — down to the stored bytes: the door
// encodes a tree into the very frame Client.Publish puts on the wire.
var entryPoints = []struct {
	name string
	send func(t *testing.T, svc *Service, addr string, pubs []pubCase)
}{
	{"Service.Publish (tree)", func(t *testing.T, svc *Service, _ string, pubs []pubCase) {
		for _, p := range pubs {
			if err := svc.Publish(p.ns, p.tree, 0); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{RPCPublish, func(t *testing.T, _ *Service, addr string, pubs []pubCase) {
		c, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, p := range pubs {
			if err := c.Publish(p.ns, p.tree); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{RPCPublishBatch, func(t *testing.T, _ *Service, addr string, pubs []pubCase) {
		c, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnableBatch(BatchConfig{MaxAge: time.Hour}) // one frame, flushed below
		for _, p := range pubs {
			if err := c.Publish(p.ns, p.tree); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}},
	{RPCPublishLocal + " (forwarded)", func(t *testing.T, svc *Service, addr string, pubs []pubCase) {
		// What a non-owning member sends its owner: the client's {ns, data}
		// envelope, verbatim.
		ep, err := svc.Engine().Lookup(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		for _, p := range pubs {
			req := conduit.NewNode()
			req.SetString("ns", string(p.ns))
			req.Attach("data", p.tree)
			if _, err := ep.Call(context.Background(), RPCPublishLocal, req.EncodeBinary()); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

func TestWireEntryPointsAgree(t *testing.T) {
	monitor := func(host string, ts float64, cpu float64) *conduit.Node {
		n := conduit.NewNode()
		base := fmt.Sprintf("PROC/%s/%.6f/", host, ts)
		n.SetFloat(base+"CPU Util", cpu)
		n.SetInt(base+"Uptime", int64(ts))
		n.SetString(base+"State", "ok")
		n.SetIntArray(base+"hist", []int64{1, 2, 3})
		return n
	}
	arrival := func(path string, v float64) *conduit.Node {
		n := conduit.NewNode()
		n.SetFloat(path, v)
		return n
	}
	profile := conduit.NewNode()
	profile.SetFloatArray("TAU/rank0/excl", []float64{0.5, 1.5})
	profile.SetBool("TAU/rank0/done", true)
	state := conduit.NewNode()
	state.SetString("RP/task.000001/99.5", "launch_start")

	cases := map[string][]pubCase{
		"timestamped monitors with a firing rule": {
			{NSHardware, monitor("cn01", 98.2, 95)}, {NSHardware, monitor("cn02", 98.4, 10)},
			{NSHardware, monitor("cn01", 99.2, 97)}, {NSHardware, monitor("cn02", 99.4, 12)},
		},
		"arrival-stamped leaves overwriting each other": {
			{NSHardware, arrival("PROC/cn01/CPU Util", 95)}, {NSHardware, arrival("PROC/cn01/CPU Util", 99)},
			{NSHardware, arrival("LOAD/cn01/s00", 1)},
		},
		"namespaces interleaved, non-numeric kinds": {
			{NSWorkflow, state}, {NSHardware, monitor("cn03", 99.9, 50)}, {NSPerformance, profile},
			{NSWorkflow, state}, {NSApplication, arrival("FOM/rate/97.5", 12.5)},
		},
	}
	for name, pubs := range cases {
		t.Run(name, func(t *testing.T) {
			var want observed
			for i, ep := range entryPoints {
				got := observe(t, pubs, ep.send)
				if i == 0 {
					want = got
					if len(want.Series) == 0 || len(want.Updates) != len(pubs) {
						t.Fatalf("reference run observed nothing: %+v", want)
					}
					next := map[Namespace]int{}
					for _, p := range pubs {
						recs, k := want.Records[p.ns], next[p.ns]
						if k >= len(recs) || !bytes.Equal(recs[k], p.tree.EncodeBinary()) {
							t.Fatalf("tree publish %d into %s is not stored as the tree's wire frame", k, p.ns)
						}
						next[p.ns]++
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s leaves different state than %s:\n got %+v\nwant %+v", ep.name, entryPoints[0].name, got, want)
				}
			}
			if strings.HasPrefix(name, "timestamped") {
				firing := 0
				for _, st := range want.Alerts {
					if st.Firing {
						firing++
					}
				}
				if firing != 1 {
					t.Fatalf("want exactly cn01 firing, got standings %+v", want.Alerts)
				}
			}
		})
	}
}

// A mis-placed soma.publish is forwarded to its owner verbatim and lands
// there through the same pipeline: the owner's pending queue holds the publish,
// no other member's does, and a scattered query finds it from anywhere.
func TestClusterForwardIsVerbatim(t *testing.T) {
	svcs, addrs := startFleet(t, 3)
	c, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 24
	for i := 0; i < n; i++ {
		tree := conduit.NewNode()
		tree.SetFloat(fmt.Sprintf("FWD/cn%03d/%d.5/temp", i, i), float64(i))
		if err := c.Publish(NSHardware, tree); err != nil {
			t.Fatal(err)
		}
	}
	held, holders := 0, 0
	for _, svc := range svcs {
		pend := pendingRecords(svc.instances[NSHardware])
		held += len(pend)
		if len(pend) > 0 {
			holders++
		}
		keys, _ := svc.SeriesKeys(NSHardware, "FWD/**")
		if len(keys) != len(pend) {
			t.Fatalf("member holds %d publishes but %d rollup series", len(pend), len(keys))
		}
	}
	if held != n || holders < 2 {
		t.Fatalf("%d publishes held by %d members, want %d spread over at least 2", held, holders, n)
	}
	tree, err := c.Query(NSHardware, "FWD")
	if err != nil || tree.NumLeaves() != n {
		t.Fatalf("scattered query finds %d leaves (err=%v), want %d", tree.NumLeaves(), err, n)
	}
}

// An in-process publish is encoded at the door: what the caller does to its
// tree afterwards reaches no reader.
func TestPublishDoesNotRetainTree(t *testing.T) {
	svc := NewService(ServiceConfig{})
	defer svc.Close()
	ch, cancel, err := svc.SubscribeLocal(NSHardware)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const key = "PROC/cn01/CPU Util"
	tree := conduit.NewNode()
	tree.SetFloat(key, 41)
	if err := svc.Publish(NSHardware, tree, 0); err != nil {
		t.Fatal(err)
	}
	tree.SetFloat(key, 99) // the caller reuses its tree
	tree.SetFloat("PROC/cn02/CPU Util", 7)

	check := func(reader string, got *conduit.Node) {
		t.Helper()
		if v, ok := got.Float(key); !ok || v != 41 || got.NumLeaves() != 1 {
			t.Errorf("%s shows the tree as mutated after the publish:\n%s", reader, got.Format())
		}
	}
	pend := pendingRecords(svc.instances[NSHardware]) // before the query folds it away
	if len(pend) != 1 {
		t.Fatalf("service holds %d records, want 1", len(pend))
	}
	stored, err := conduit.DecodeBinary(pend[0].enc)
	if err != nil {
		t.Fatal(err)
	}
	check("pending record", stored)
	snap, err := svc.Query(NSHardware, "")
	if err != nil {
		t.Fatal(err)
	}
	check("Query", snap)
	u := <-ch
	check("subscriber", u.Tree)
	se, err := svc.QuerySeries(NSHardware, key, LevelRaw, 0)
	if err != nil || len(se.Points) != 1 || se.Points[0].Value != 41 {
		t.Errorf("series shows %+v (err=%v), want the one publish-time sample 41", se.Points, err)
	}
}

// A publish without a tree is refused at every tree entry point, and a batch
// holding one is refused whole.
func TestPublishNilTree(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	if err := svc.Publish(NSHardware, nil, 0); err == nil {
		t.Error("Service.Publish accepted a nil tree")
	}
	good := conduit.NewNode()
	good.SetFloat("PROC/cn01/CPU Util", 1)
	batch := []conduit.BatchEntry{{NS: string(NSHardware), Tree: good}, {NS: string(NSHardware)}}
	if err := svc.PublishBatch(batch, 0); err == nil {
		t.Error("Service.PublishBatch accepted a nil tree")
	}
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish(NSHardware, nil); err == nil {
		t.Error("Client.Publish accepted a nil tree")
	}
	if pend := pendingRecords(svc.instances[NSHardware]); len(pend) != 0 {
		t.Errorf("%d publishes ingested from refused requests", len(pend))
	}
}

// Service.Publish on a cluster member places a tree exactly where soma.publish
// through that member does: both read the shard key off the same frame.
func TestInprocPublishPlacesLikeWire(t *testing.T) {
	svcs, addrs := startFleet(t, 3)
	c, err := Connect(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 24
	for i := 0; i < n; i++ {
		tree := conduit.NewNode()
		tree.SetString(fmt.Sprintf("PLACE/cn%03d/state", i), "ok") // the key is the first leaf of any kind
		tree.SetFloat(fmt.Sprintf("PLACE/cn%03d/temp", i), float64(i))
		tree.SetFloat(fmt.Sprintf("AAA/cn%03d", i), 1)
		if err := svcs[0].Publish(NSHardware, tree, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Publish(NSHardware, tree); err != nil {
			t.Fatal(err)
		}
	}
	holders := 0
	for i, svc := range svcs {
		copies := map[string]int{}
		for _, rec := range pendingRecords(svc.instances[NSHardware]) {
			copies[string(rec.enc)]++
		}
		for enc, k := range copies {
			if k != 2 {
				tree, _ := conduit.DecodeBinary([]byte(enc))
				t.Errorf("member %d holds %d of the 2 publishes of\n%s", i, k, tree.Format())
			}
		}
		if len(copies) > 0 {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("%d publishes all landed on %d member", n, holders)
	}
}

// refMatchSegs is the split-both-sides glob matcher the byte-key matcher
// replaced; kept as the oracle for TestMatchSegsAgainstSplit.
func refMatchSegs(pat, segs []string) bool {
	for len(pat) > 0 {
		p := pat[0]
		if p == "**" {
			if len(pat) == 1 {
				return true
			}
			for i := 0; i <= len(segs); i++ {
				if refMatchSegs(pat[1:], segs[i:]) {
					return true
				}
			}
			return false
		}
		if len(segs) == 0 {
			return false
		}
		if p != "*" && p != segs[0] {
			return false
		}
		pat, segs = pat[1:], segs[1:]
	}
	return len(segs) == 0
}

func TestMatchSegsAgainstSplit(t *testing.T) {
	atoms := []string{"a", "bb", "*", "**", ""}
	var patterns, keys []string
	for _, x := range atoms {
		patterns = append(patterns, x)
		for _, y := range atoms {
			patterns = append(patterns, x+"/"+y)
			for _, z := range atoms {
				patterns = append(patterns, x+"/"+y+"/"+z)
			}
		}
	}
	for _, p := range patterns {
		if !strings.Contains(p, "*") {
			keys = append(keys, p, p+"/a", "a/"+p)
		}
	}
	for _, p := range patterns {
		pat := strings.Split(p, "/")
		for _, k := range keys {
			want := refMatchSegs(pat, strings.Split(k, "/"))
			if got := matchSegs(pat, k, 0); got != want {
				t.Fatalf("matchSegs(%q, %q) = %v, split-based matcher says %v", p, k, got, want)
			}
			if got := matchSegs(pat, []byte(k), 0); got != want {
				t.Fatalf("matchSegs(%q, []byte(%q)) = %v, split-based matcher says %v", p, k, got, want)
			}
		}
	}
}

// seriesDump flattens a store for comparison: every key's raw points and
// 1 s / 10 s buckets.
func seriesDump(st *seriesStore) map[string][3]interface{} {
	out := map[string][3]interface{}{}
	for _, key := range st.keysMatching("") {
		pts, _, _ := st.query(key, LevelRaw, 0)
		_, b1, _ := st.query(key, Level1s, 0)
		_, b10, _ := st.query(key, Level10s, 0)
		out[key] = [3]interface{}{pts, b1, b10}
	}
	return out
}

// FuzzWireIngest is the pipeline-level differential: the entries of any batch
// frame the service accepts are ingested twice — as the wire bytes they came
// as through soma.publish.batch, and as decoded trees through
// Service.PublishBatch, whose door re-encodes each one canonically — and must
// leave the same snapshot and, on duplicate-free
// frames, the same rollup state (a frame whose entries re-encode to the bytes
// they arrived as repeats no sibling name: decoding would have merged the
// repeats away). Rejected frames must leave nothing.
func FuzzWireIngest(f *testing.F) {
	tree := conduit.NewNode()
	tree.SetFloat("PROC/cn01/12.5/CPU Util", 73.5)
	tree.SetInt("PROC/cn01/12.5/Uptime", 49902)
	tree.SetString("PROC/cn01/12.5/State", "ok")
	one := conduit.AppendBatchEntryEncoded(conduit.AppendBatchHeader(nil), string(NSHardware), tree.EncodeBinary())
	f.Add(one)
	two := conduit.AppendBatchEntryEncoded(one[:len(one):len(one)], string(NSWorkflow), tree.EncodeBinary())
	f.Add(two)
	f.Add(conduit.AppendBatchEntryEncoded(two[:len(two):len(two)], "bogus", tree.EncodeBinary()))
	f.Add(one[:len(one)-2])
	scalar := conduit.NewNode()
	scalar.SetInt("", 7)
	f.Add(conduit.AppendBatchEntryEncoded(conduit.AppendBatchHeader(nil), string(NSHardware), scalar.EncodeBinary()))
	// A child object whose count of zero is spelled 0x80 0x00: both folds must
	// leave the child as absent as a one-byte zero does.
	f.Add(conduit.AppendBatchEntryEncoded(conduit.AppendBatchHeader(nil), string(NSHardware),
		[]byte{'C', 'D', 'T', 1, byte(conduit.KindObject), 1, 1, 'a', byte(conduit.KindObject), 0x80, 0x00}))

	f.Fuzz(func(t *testing.T, frame []byte) {
		clock := &fakeClock{}
		clock.set(50)
		wire := NewService(ServiceConfig{Clock: clock})
		defer wire.Close()
		_, err := wire.handlePublishBatch(context.Background(), frame)
		entries, derr := conduit.DecodeBatch(frame)
		for _, e := range entries {
			if !Namespace(e.NS).Valid() {
				derr = &ErrUnknownNamespace{NS: Namespace(e.NS)}
			}
		}
		if (err == nil) != (derr == nil) {
			t.Fatalf("wire ingest err=%v, decode+namespace check err=%v", err, derr)
		}
		if err != nil {
			for _, st := range wire.Stats() {
				if st.Publishes != 0 {
					t.Fatalf("rejected frame applied %d publishes to %s", st.Publishes, st.Namespace)
				}
			}
			return
		}
		ref := NewService(ServiceConfig{Clock: clock})
		defer ref.Close()
		if err := ref.PublishBatch(entries, len(frame)); err != nil {
			t.Fatal(err)
		}
		duplicates, i := false, 0
		_ = conduit.ForEachBatchEntry(frame, func(_, enc []byte) error {
			duplicates = duplicates || !bytes.Equal(entries[i].Tree.EncodeBinary(), enc)
			i++
			return nil
		})
		for _, ns := range Namespaces {
			a, b := wire.instances[ns], ref.instances[ns]
			if !bytes.Equal(a.snapshotTree().EncodeBinary(), b.snapshotTree().EncodeBinary()) {
				t.Fatalf("%s: snapshot folded from wire bytes differs from the decoded trees'", ns)
			}
			if !duplicates && !reflect.DeepEqual(seriesDump(a.rollup), seriesDump(b.rollup)) {
				t.Fatalf("%s: rollups walked from wire bytes differ from the decoded trees'", ns)
			}
		}
	})
}
