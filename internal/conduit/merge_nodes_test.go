package conduit

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// treeUnion is MergeNodes' oracle — what the cluster scatter used to do per
// read: decode every frame, fold them in order into a fresh node with Merge.
func treeUnion(t testing.TB, frames [][]byte) *Node {
	acc := NewNode()
	for i, f := range frames {
		n, err := DecodeBinary(f)
		if err != nil {
			t.Fatalf("frame %d validated but does not decode: %v", i, err)
		}
		acc.Merge(n)
	}
	return acc
}

// checkMergeNodes is the differential shared by the table test and
// FuzzMergeNodes. frames are complete tree frames (magic included). When every
// frame validates, the union must decode to the oracle's tree — compared as
// re-encoded bytes, so child order and NaN payloads count — and when every
// frame is also exactly what EncodeBinary emits, the union's own bytes must
// equal the oracle's encoding. When any frame does not validate, MergeNodes
// must fail naming the first such frame and leave dst as it was; it must never
// panic or read past a frame's end (every input is handed over capped).
func checkMergeNodes(t testing.TB, frames [][]byte) {
	nodes := make([][]byte, len(frames))
	firstBad, canonical := -1, true
	for i, f := range frames {
		if !hasTreeMagic(f) {
			t.Fatalf("frame %d has no magic: the harness feeds complete frames", i)
		}
		nodes[i] = f[4:len(f):len(f)]
		if err := ValidateBinary(f); err != nil {
			if firstBad < 0 {
				firstBad = i
			}
			continue
		}
		if n, err := DecodeBinary(f); err != nil || !bytes.Equal(n.EncodeBinary(), f) {
			canonical = false
		}
	}
	prefix := []byte("dst")
	out, err := MergeNodes(append([]byte(nil), prefix...), nodes)
	if firstBad >= 0 {
		if err == nil {
			t.Fatalf("frame %d does not validate but MergeNodes succeeded", firstBad)
		}
		if want := fmt.Sprintf("merge source %d:", firstBad); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the first invalid input (%q)", err, want)
		}
		if !bytes.Equal(out, prefix) {
			t.Fatalf("failed merge left %d bytes behind in dst", len(out)-len(prefix))
		}
		return
	}
	if err != nil {
		t.Fatalf("every frame validates but MergeNodes failed: %v", err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("MergeNodes clobbered dst's existing bytes: %q", out[:len(prefix)])
	}
	union := AppendRawFrame(nil, out[len(prefix):])
	got, err := DecodeBinary(union)
	if err != nil {
		t.Fatalf("union does not decode: %v", err)
	}
	want := treeUnion(t, frames).EncodeBinary()
	if !bytes.Equal(got.EncodeBinary(), want) {
		wt, _ := DecodeBinary(want)
		t.Fatalf("union differs from decode+Merge\n got: %s\nwant: %s", got.Format(), wt.Format())
	}
	if canonical && !bytes.Equal(union, want) {
		t.Fatalf("inputs are canonical but the union's bytes differ from EncodeBinary\n got: %x\nwant: %x", union, want)
	}
}

// rawFrame is a frame written by hand: magic plus the given node bytes.
func rawFrame(node ...byte) []byte {
	return append(append([]byte(nil), binMagic[:]...), node...)
}

func TestMergeNodesTable(t *testing.T) {
	const obj, i64, f64, empty = byte(KindObject), byte(KindInt), byte(KindFloat), byte(KindEmpty)
	enc := func(build func(n *Node)) []byte {
		n := NewNode()
		build(n)
		return n.EncodeBinary()
	}
	a := enc(func(n *Node) {
		n.SetFloat("LOAD/cn00001/s00", 1)
		n.SetFloat("LOAD/cn00002/s00", 2)
		n.SetString("meta/host", "a")
	})
	b := enc(func(n *Node) {
		n.SetFloat("LOAD/cn00001/s01", 3)
		n.SetFloat("LOAD/cn00003/s00", 4)
		n.SetIntArray("meta/hist", []int64{1, 2})
	})
	c := enc(func(n *Node) {
		n.SetFloat("LOAD/cn00001/s00", 5) // collides with a: the later leaf wins
		n.SetBool("up", true)
	})
	objAX := enc(func(n *Node) { n.SetInt("a/x", 1) })
	leafA := enc(func(n *Node) { n.SetInt("a", 5) })
	objAY := enc(func(n *Node) { n.SetInt("a/y", 2) })
	emptyChild := rawFrame(obj, 1, 1, 'a', empty)
	emptyObjChild := rawFrame(obj, 1, 1, 'a', obj, 0)
	// {x: 5, x: {q: 2}}: decoding merges the repeats to {x: {q: 2}} before the
	// frame meets the others — the leaf must not wipe an earlier source's x.
	dupFlip := rawFrame(obj, 2, 1, 'x', i64, 10, 1, 'x', obj, 1, 1, 'q', i64, 4)
	objXP := enc(func(n *Node) { n.SetInt("x/p", 1) })
	// {a: {b: 1, b: {c: {}, c: 2}}, a: {b: {c: 3}}}: repeats nested in repeats.
	nestedDup := rawFrame(obj, 2,
		1, 'a', obj, 2, 1, 'b', i64, 2, 1, 'b', obj, 2, 1, 'c', obj, 0, 1, 'c', i64, 4,
		1, 'a', obj, 1, 1, 'b', obj, 1, 1, 'c', i64, 6)
	paddedVarint := rawFrame(obj, 0x81, 0x00, 1, 'a', i64, 0x82, 0x00) // valid, not canonical

	cases := []struct {
		name   string
		frames [][]byte
		want   func(n *Node) // nil: the differential alone decides
	}{
		{"no sources", nil, func(*Node) {}},
		{"one source", [][]byte{a}, nil},
		{"disjoint and colliding", [][]byte{a, b, c}, nil},
		{"same frame thrice", [][]byte{a, a, a}, nil},
		{"object, leaf, object", [][]byte{objAX, leafA, objAY}, func(n *Node) { n.SetInt("a/y", 2) }},
		{"object, object, leaf", [][]byte{objAX, objAY, leafA}, func(n *Node) { n.SetInt("a", 5) }},
		{"leaf then objects", [][]byte{leafA, objAX, objAY}, func(n *Node) { n.SetInt("a/x", 1); n.SetInt("a/y", 2) }},
		{"root leaf wipes", [][]byte{a, rawFrame(i64, 2), b}, nil},
		{"root leaf last", [][]byte{a, b, rawFrame(f64, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F)}, nil},
		{"empty child alone", [][]byte{emptyChild}, func(n *Node) { n.Fetch("a") }},
		{"empty child then leaf", [][]byte{emptyChild, leafA}, func(n *Node) { n.SetInt("a", 5) }},
		{"leaf then empty child", [][]byte{leafA, emptyChild}, func(n *Node) { n.SetInt("a", 5) }},
		{"object then empty child", [][]byte{objAX, emptyChild, emptyObjChild}, func(n *Node) { n.SetInt("a/x", 1) }},
		{"empty object child becomes empty", [][]byte{emptyObjChild}, func(n *Node) { n.Fetch("a") }},
		{"empty object child after leaf", [][]byte{leafA, emptyObjChild}, func(n *Node) { n.SetInt("a", 5) }},
		{"empty roots", [][]byte{rawFrame(empty), rawFrame(obj, 0), rawFrame(empty)}, func(*Node) {}},
		{"empty root beside data", [][]byte{rawFrame(obj, 0), a, rawFrame(empty)}, nil},
		{"repeated names, one source", [][]byte{dupFlip}, func(n *Node) { n.SetInt("x/q", 2) }},
		{"repeated names across a flip", [][]byte{objXP, dupFlip}, func(n *Node) { n.SetInt("x/p", 1); n.SetInt("x/q", 2) }},
		{"repeated names, then a source", [][]byte{dupFlip, objXP}, func(n *Node) { n.SetInt("x/q", 2); n.SetInt("x/p", 1) }},
		{"repeats nested in repeats", [][]byte{nestedDup, nestedDup}, func(n *Node) { n.SetInt("a/b/c", 3) }},
		{"padded varints", [][]byte{paddedVarint, a}, nil},
		{"max depth twice", [][]byte{deepFrame(maxDepth), deepFrame(maxDepth)}, nil},

		{"depth 513", [][]byte{a, deepFrame(maxDepth + 1)}, nil},
		{"depth 513 under a wiping leaf", [][]byte{deepFrame(maxDepth + 1), rawFrame(i64, 2)}, nil},
		{"oversize child count", [][]byte{a, rawFrame(obj, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)}, nil},
		{"oversize array count", [][]byte{rawFrame(obj, 1, 1, 'a', byte(KindFloatArray), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), a}, nil},
		{"truncated float", [][]byte{a, b, rawFrame(obj, 1, 1, 'a', f64, 1, 2, 3)}, nil},
		{"truncated name", [][]byte{rawFrame(obj, 1, 9, 'a'), a}, nil},
		{"trailing bytes", [][]byte{a, append(append([]byte(nil), b...), 0)}, nil},
		{"trailing bytes after a leaf", [][]byte{rawFrame(i64, 2, 0), a}, nil},
		{"unknown kind", [][]byte{a, rawFrame(obj, 1, 1, 'a', 0x7F)}, nil},
		{"no node at all", [][]byte{a, rawFrame()}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkMergeNodes(t, tc.frames)
			if tc.want == nil {
				return
			}
			nodes := make([][]byte, len(tc.frames))
			for i, f := range tc.frames {
				nodes[i] = f[4:]
			}
			out, err := MergeNodes(nil, nodes)
			if err != nil {
				t.Fatal(err)
			}
			want := NewNode()
			tc.want(want)
			if got := AppendRawFrame(nil, out); !bytes.Equal(got, want.EncodeBinary()) {
				gt, _ := DecodeBinary(got)
				t.Fatalf("union = %s\nwant %s", gt.Format(), want.Format())
			}
		})
	}
}

// loadShards splits the benchmark's LOAD/cn%05d/s%02d tree of the given leaf
// count by leaf-path hash — what consistent-hash placement does to it — and
// returns each shard's raw node encoding.
func loadShards(shards, leaves int) [][]byte {
	trees := make([]*Node, shards)
	for i := range trees {
		trees[i] = NewNode()
	}
	for p := 0; p < leaves; p++ {
		path := fmt.Sprintf("cn%05d/s%02d", p/16, p%16)
		h := fnv.New32a()
		h.Write([]byte(path))
		trees[h.Sum32()%uint32(shards)].SetFloat(path, float64(p))
	}
	nodes := make([][]byte, shards)
	for i, tr := range trees {
		nodes[i] = tr.EncodeBinary()[4:]
	}
	return nodes
}

func TestMergeNodesShards(t *testing.T) {
	nodes := loadShards(3, 2000)
	frames := make([][]byte, len(nodes))
	for i, nd := range nodes {
		frames[i] = AppendRawFrame(nil, nd)
	}
	checkMergeNodes(t, frames)
	out, err := MergeNodes(nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := DecodeBinary(AppendRawFrame(nil, out))
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.NumLeaves(); got != 2000 {
		t.Fatalf("union holds %d leaves, want 2000", got)
	}
}

// The kernel's scratch is offset-based and reused: however many leaves the
// shards hold, a merge with warm scratch into a buffer that is already large
// enough allocates nothing — it runs on every scattered read. (The scratch is
// held directly here: MergeNodes draws it from a sync.Pool, which the race
// detector's runtime empties at random.)
func TestMergeNodesAllocs(t *testing.T) {
	for _, leaves := range []int{320, 32000} {
		nodes := loadShards(3, leaves)
		var m nodeMerger
		dst, err := m.merge(nil, nodes)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			dst, _ = m.merge(dst[:0], nodes)
		})
		if allocs != 0 {
			t.Fatalf("merging %d leaves allocated %.1f times per run, want 0", leaves, allocs)
		}
	}
}

// FuzzMergeNodes reads its input as a batch frame and merges the entries'
// trees, in order, as MergeNodes sources; see checkMergeNodes for what must
// hold. Entries need not validate — the kernel meets peer frames off the wire.
func FuzzMergeNodes(f *testing.F) {
	batch := func(trees ...[]byte) []byte {
		out := AppendBatchHeader(nil)
		for _, tr := range trees {
			out = AppendBatchEntryEncoded(out, "hardware", tr)
		}
		return out
	}
	tree := func(build func(n *Node)) []byte {
		n := NewNode()
		build(n)
		return n.EncodeBinary()
	}
	shards := loadShards(3, 96)
	f.Add(batch(AppendRawFrame(nil, shards[0]), AppendRawFrame(nil, shards[1]), AppendRawFrame(nil, shards[2])))
	f.Add(batch(sampleTree(0).EncodeBinary(), sampleTree(1).EncodeBinary(), sampleTree(0).EncodeBinary()))
	// A path flips object → leaf → object across sources.
	f.Add(batch(
		tree(func(n *Node) { n.SetInt("m/x/y", 1) }),
		tree(func(n *Node) { n.SetString("m/x", "flat") }),
		tree(func(n *Node) { n.SetInt("m/x/z", 2); n.SetFloat("m/nan", math.NaN()) })))
	// Empty nodes, empty objects, repeated names (with a leaf → object flip
	// among the repeats), padded varints.
	f.Add(batch(
		rawFrame(byte(KindObject), 2, 1, 'a', byte(KindEmpty), 1, 'b', byte(KindObject), 0),
		rawFrame(byte(KindObject), 1, 1, 'x', byte(KindObject), 1, 1, 'p', byte(KindInt), 2),
		rawFrame(byte(KindObject), 2, 1, 'x', byte(KindInt), 10, 1, 'x', byte(KindObject), 1, 1, 'q', byte(KindInt), 4),
		rawFrame(byte(KindObject), 0x81, 0x00, 1, 'a', byte(KindBool), 7)))
	// Hostile: too deep, truncated, trailing bytes, a count that lies.
	f.Add(batch(sampleTree(2).EncodeBinary(), deepFrame(maxDepth+1)))
	f.Add(batch(sampleTree(2).EncodeBinary(), sampleTree(3).EncodeBinary()[:20]))
	f.Add(batch(append(sampleTree(2).EncodeBinary(), 0), sampleTree(3).EncodeBinary()))
	f.Add(batch(rawFrame(byte(KindObject), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		if ForEachBatchEntry(data, func(_, enc []byte) error {
			frames = append(frames, enc)
			return nil
		}) != nil {
			return
		}
		checkMergeNodes(t, frames)
	})
}

var mergeNodesSink []byte

// BenchmarkMergeNodes is the union stage of a cluster3 whole-tree read on its
// own: three hash-split shards of the benchmark's 20 000-leaf LOAD tree.
func BenchmarkMergeNodes(b *testing.B) {
	nodes := loadShards(3, 20000)
	size := 0
	for _, nd := range nodes {
		size += len(nd)
	}
	dst, err := MergeNodes(nil, nodes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MergeNodes(dst[:0], nodes)
	}
	mergeNodesSink = dst
}
