package conduit

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Reference side of the byte-walk differentials: the leaf stream of the
// DECODED tree (Node.walkBytes, numeric kinds only — what the service's
// tree-walk rollup ingest consumed before it read wire bytes), and a small
// rollup fold over such a stream.

type leafSample struct {
	path string
	v    float64
}

func treeNumericLeaves(n *Node) []leafSample {
	var out []leafSample
	n.walkBytes(func(path []byte, leaf *Node) bool {
		if leaf == n {
			return true // a bare scalar root has no series (a child named "" does)
		}
		switch leaf.Kind() {
		case KindFloat:
			out = append(out, leafSample{string(path), leaf.float()})
		case KindInt:
			out = append(out, leafSample{string(path), float64(int64(leaf.num))})
		}
		return true
	})
	return out
}

func wireNumericLeaves(t testing.TB, frame []byte) ([]leafSample, error) {
	var out []leafSample
	// Capacity pinned to length: a read past the frame panics instead of
	// silently landing in a neighbour's bytes.
	buf, err := WalkNumericLeaves(frame[:len(frame):len(frame)], nil, func(path []byte, v float64) {
		out = append(out, leafSample{string(path), v})
	})
	if len(buf) != 0 {
		t.Fatalf("WalkNumericLeaves returned a non-empty path buffer (%q)", buf)
	}
	return out, err
}

// rollupState is the reference fold: per series key (the path with its last
// numeric segment — the sample time — folded out) the sample count, the last
// value, and min/max/sum per 1 s bucket.
type rollupBucket struct{ Min, Max, Sum float64 }
type rollupSeries struct {
	Count   int
	Last    uint64 // bits, so NaN compares equal to itself
	Buckets map[int64]rollupBucket
}

func foldRollups(leaves []leafSample) map[string]*rollupSeries {
	state := map[string]*rollupSeries{}
	for _, l := range leaves {
		if math.IsNaN(l.v) || math.IsInf(l.v, 0) {
			continue // never a sample (and NaN would defeat DeepEqual)
		}
		segs := strings.Split(l.path, "/")
		t := 0.0
		for i := len(segs) - 1; i >= 0; i-- {
			if v, err := strconv.ParseFloat(segs[i], 64); err == nil && v >= 0 && v <= 1e15 {
				t = v
				segs = append(segs[:i:i], segs[i+1:]...)
				break
			}
		}
		key := strings.Join(segs, "/")
		se := state[key]
		if se == nil {
			se = &rollupSeries{Buckets: map[int64]rollupBucket{}}
			state[key] = se
		}
		se.Count++
		se.Last = math.Float64bits(l.v)
		start := int64(math.Floor(t))
		b, seen := se.Buckets[start]
		if !seen {
			b = rollupBucket{Min: l.v, Max: l.v}
		}
		b.Min, b.Max, b.Sum = math.Min(b.Min, l.v), math.Max(b.Max, l.v), b.Sum+l.v
		se.Buckets[start] = b
	}
	return state
}

// wireHasDuplicateNames reports whether any object of a VALID frame repeats
// a child name — the one case where the wire walk and the decoded tree
// legitimately differ (decoding merges the repeats).
func wireHasDuplicateNames(frame []byte) bool {
	r := binReader{data: frame, pos: 4}
	var walk func() bool
	walk = func() bool {
		if Kind(r.data[r.pos]) != KindObject {
			_ = validateNode(&r, 0)
			return false
		}
		r.pos++
		count, _ := r.uvarint()
		seen := map[string]bool{}
		dup := false
		for i := uint64(0); i < count; i++ {
			name, _ := r.str()
			dup = dup || seen[name]
			seen[name] = true
			dup = walk() || dup
		}
		return dup
	}
	return walk()
}

// checkWireReaders is the differential shared by the table tests and
// FuzzDecodeBatch: on any bytes the readers neither panic nor over-read and
// agree with ValidateBinary about validity; on a valid, duplicate-free frame
// they see exactly what a walk over the decoded tree sees.
func checkWireReaders(t testing.TB, frame []byte) {
	verr := ValidateBinary(frame)
	leaves, werr := wireNumericLeaves(t, frame)
	if (verr == nil) != (werr == nil) {
		t.Fatalf("WalkNumericLeaves err=%v but ValidateBinary err=%v", werr, verr)
	}
	first, ferr := FirstLeafPath(frame[:len(frame):len(frame)], nil)
	if verr == nil && ferr != nil {
		t.Fatalf("FirstLeafPath failed on a valid frame: %v", ferr)
	}
	if verr != nil {
		return
	}
	tree, err := DecodeBinary(frame)
	if err != nil {
		t.Fatalf("validated frame does not decode: %v", err)
	}
	if wireHasDuplicateNames(frame) {
		return
	}
	want := treeNumericLeaves(tree)
	if !reflect.DeepEqual(foldRollups(leaves), foldRollups(want)) {
		t.Fatalf("byte-walk rollup state differs from tree-walk state\n wire: %v\n tree: %v", leaves, want)
	}
	if len(leaves) != len(want) {
		t.Fatalf("byte walk yields %d numeric leaves, tree walk %d", len(leaves), len(want))
	}
	for i := range want {
		if leaves[i].path != want[i].path || math.Float64bits(leaves[i].v) != math.Float64bits(want[i].v) {
			t.Fatalf("leaf %d: byte walk %v, tree walk %v", i, leaves[i], want[i])
		}
	}
	wantFirst := ""
	tree.Walk(func(p string, _ *Node) bool { wantFirst = p; return false })
	if string(first) != wantFirst {
		t.Fatalf("FirstLeafPath = %q, tree walk visits %q first", first, wantFirst)
	}
}

// deepFrame nests a single int leaf under depth objects.
func deepFrame(depth int) []byte {
	frame := append([]byte(nil), binMagic[:]...)
	for i := 0; i < depth; i++ {
		frame = append(frame, byte(KindObject), 1, 1, 'd')
	}
	return append(frame, byte(KindInt), 2)
}

func TestWireReadersTable(t *testing.T) {
	mixed := NewNode()
	mixed.SetFloat("PROC/cn01/12.5/CPU Util", 73.5)
	mixed.SetInt("PROC/cn01/12.5/Uptime", 49902)
	mixed.SetString("PROC/cn01/12.5/State", "ok")
	mixed.SetBool("PROC/cn01/up", true)
	mixed.SetIntArray("PROC/cn01/hist", []int64{1, 2, 3})
	mixed.SetFloatArray("PROC/cn01/prof", []float64{0.5, 1.5})
	mixed.SetFloat("PROC/cn01/nan", math.NaN())
	mixed.Fetch("PROC/cn02") // an empty child is a leaf to Walk, but not numeric
	mixed.SetInt("RP/summary/13.0/running", -4)

	scalarRoot := NewNode()
	scalarRoot.SetFloat("", 4.5)

	dupNames := append([]byte(nil), binMagic[:]...)
	dupNames = append(dupNames, byte(KindObject), 2, 1, 'a', byte(KindInt), 2, 1, 'a', byte(KindInt), 4)

	cases := []struct {
		name   string
		frame  []byte
		valid  bool
		leaves int // numeric leaves the byte walk must yield when valid
		first  string
	}{
		{"mixed kinds", mixed.EncodeBinary(), true, 4, "PROC/cn01/12.5/CPU Util"},
		{"root scalar", scalarRoot.EncodeBinary(), true, 0, ""},
		{"empty object", append(append([]byte(nil), binMagic[:]...), byte(KindObject), 0), true, 0, ""},
		{"empty node", NewNode().EncodeBinary(), true, 0, ""},
		{"duplicate sibling names", dupNames, true, 2, "a"},
		{"max depth", deepFrame(maxDepth), true, 1, strings.Repeat("d/", maxDepth-1) + "d"},
		{"depth maxDepth+1", deepFrame(maxDepth + 1), false, 0, ""},
		{"truncated varint", append(append([]byte(nil), binMagic[:]...), byte(KindObject), 1, 1, 'x', byte(KindInt), 0x80), false, 0, ""},
		{"truncated", mixed.EncodeBinary()[:30], false, 0, ""},
		{"trailing bytes", append(mixed.EncodeBinary(), 0), false, 0, ""},
		{"unknown kind", append(append([]byte(nil), binMagic[:]...), 0x7F), false, 0, ""},
		{"bad magic", []byte("XDT\x01\x00"), false, 0, ""},
		{"short", []byte("CD"), false, 0, ""},
		{"huge child count", append(append([]byte(nil), binMagic[:]...), byte(KindObject), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), false, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkWireReaders(t, tc.frame)
			leaves, err := wireNumericLeaves(t, tc.frame)
			if (err == nil) != tc.valid {
				t.Fatalf("WalkNumericLeaves err = %v, want valid=%v", err, tc.valid)
			}
			if !tc.valid {
				return
			}
			if len(leaves) != tc.leaves {
				t.Fatalf("%d numeric leaves %v, want %d", len(leaves), leaves, tc.leaves)
			}
			first, err := FirstLeafPath(tc.frame, nil)
			if err != nil || string(first) != tc.first {
				t.Fatalf("FirstLeafPath = %q, %v; want %q", first, err, tc.first)
			}
		})
	}
}

// The walk itself must not allocate once its path buffer has grown: it runs
// per publish on the service's ingest path.
func TestWalkNumericLeavesAllocs(t *testing.T) {
	n := NewNode()
	for i := 0; i < 16; i++ {
		n.SetFloat("LOAD/cn00001/s"+strconv.Itoa(i), float64(i))
	}
	frame := n.EncodeBinary()
	buf := make([]byte, 0, 64)
	sum := 0.0
	fn := func(_ []byte, v float64) { sum += v }
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = WalkNumericLeaves(frame, buf, fn)
		buf, _ = FirstLeafPath(frame, buf)
	})
	if allocs != 0 {
		t.Fatalf("walk allocated %.1f times per run, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("walk visited nothing")
	}
}

func TestSliceFieldsTable(t *testing.T) {
	data := NewNode()
	data.SetFloat("PROC/cn01/CPU Util", 73.5)
	envelope := func(build func(req *Node)) []byte {
		req := NewNode()
		build(req)
		return req.EncodeBinary()
	}
	whole := envelope(func(req *Node) {
		req.SetInt("epoch", 77)
		req.SetString("ns", "hardware")
		req.Attach("data", data)
	})
	scalarData := envelope(func(req *Node) {
		req.SetString("ns", "hardware")
		req.SetFloat("data", 4.5)
	})
	noNS := envelope(func(req *Node) { req.Attach("data", data) })
	dupNS := append([]byte(nil), binMagic[:]...)
	dupNS = append(dupNS, byte(KindObject), 2)
	for _, v := range []string{"hw", "wf"} {
		dupNS = append(dupNS, 2, 'n', 's', byte(KindString), 2, v[0], v[1])
	}
	dupOther := append([]byte(nil), binMagic[:]...)
	dupOther = append(dupOther, byte(KindObject), 3, 1, 'x', byte(KindEmpty), 1, 'x', byte(KindEmpty),
		2, 'n', 's', byte(KindString), 2, 'h', 'w')
	badSibling := append([]byte(nil), binMagic[:]...)
	badSibling = append(badSibling, byte(KindObject), 2, 2, 'n', 's', byte(KindString), 2, 'h', 'w',
		5, 'e', 'p', 'o', 'c', 'h', byte(KindInt), 0x80)

	names := []string{"ns", "data", "epoch"}
	cases := []struct {
		name    string
		frame   []byte
		wantErr string // substring; "" = success
		ns      string // expected RawString of ns ("-" = field absent)
		hasData bool
	}{
		{"whole envelope", whole, "", "hardware", true},
		{"root-scalar data", scalarData, "", "hardware", true},
		{"missing ns", noNS, "", "-", true},
		{"empty object", append(append([]byte(nil), binMagic[:]...), byte(KindObject), 0), "", "-", false},
		{"no bytes", nil, "bad magic", "-", false},
		{"non-object root", envelope(func(req *Node) { req.SetInt("", 3) }), "", "-", false},
		{"duplicate ns", dupNS, "duplicate envelope field", "-", false},
		{"duplicate unrequested sibling", dupOther, "", "hw", false},
		{"trailing bytes", append(append([]byte(nil), whole...), 0), "trailing", "-", false},
		{"truncated", whole[:len(whole)-3], "truncated", "-", false},
		{"truncated varint in a sibling", badSibling, "truncated", "-", false},
		{"sibling too deep", envelope(func(req *Node) {
			req.SetString("ns", "hardware")
			req.SetInt(strings.Repeat("d/", maxDepth)+"d", 1)
		}), "too deep", "-", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out [3][]byte
			err := SliceFields(tc.frame, names, out[:])
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checkSliceAgainstDecode(t, tc.frame, names, out[:])
			ns, ok := RawString(out[0])
			if got := map[bool]string{true: string(ns), false: "-"}[ok]; got != tc.ns {
				t.Fatalf("ns = %q, want %q", got, tc.ns)
			}
			if (out[1] != nil) != tc.hasData {
				t.Fatalf("data present = %v, want %v", out[1] != nil, tc.hasData)
			}
		})
	}
	var out [3][]byte
	if err := SliceFields(whole, names, out[:]); err != nil {
		t.Fatal(err)
	}
	if epoch, ok := RawInt(out[2]); !ok || epoch != 77 {
		t.Fatalf("epoch = %d (%v), want 77", epoch, ok)
	}
	if got, err := DecodeBinary(AppendRawFrame(nil, out[1])); err != nil || !got.Equal(data) {
		t.Fatalf("data field does not decode back to the published tree (err=%v)", err)
	}
}

// checkSliceAgainstDecode asserts a successful SliceFields agrees with
// DecodeBinary + Get: the same fields are present, and each sliced field
// decodes to the tree Get returns.
func checkSliceAgainstDecode(t testing.TB, frame []byte, names []string, out [][]byte) {
	tree, err := DecodeBinary(frame)
	if err != nil {
		t.Fatalf("SliceFields accepted a frame DecodeBinary rejects: %v", err)
	}
	for i, name := range names {
		sub := tree.Child(name)
		if (sub != nil) != (out[i] != nil) {
			t.Fatalf("field %q: decoded tree has it = %v, slicer has it = %v", name, sub != nil, out[i] != nil)
		}
		if sub == nil {
			continue
		}
		got, err := DecodeBinary(AppendRawFrame(nil, out[i]))
		if err != nil {
			t.Fatalf("field %q: sliced bytes do not decode: %v", name, err)
		}
		if !bytes.Equal(got.EncodeBinary(), sub.EncodeBinary()) {
			t.Fatalf("field %q: sliced bytes decode to a different tree than Get returns", name)
		}
		if s, ok := RawString(out[i]); ok != (sub.Kind() == KindString) || (ok && string(s) != sub.s) {
			t.Fatalf("field %q: RawString = %q, %v; tree holds %v", name, s, ok, sub.Value())
		}
		wantInt, wantOK := sub.Int("")
		if v, ok := RawInt(out[i]); ok != wantOK || v != wantInt {
			t.Fatalf("field %q: RawInt = %d, %v; Node.Int = %d, %v", name, v, ok, wantInt, wantOK)
		}
	}
}

// The raw writers emit what the encoder emits: an envelope written around a
// spliced node is the frame of the tree holding that node.
func TestAppendRawWritersMatchEncoder(t *testing.T) {
	data := sampleTree(3)
	want := NewNode()
	want.SetInt("dropped", -7)
	want.SetBool("closed", true)
	want.SetString("msgs/000000/topic", "ns/hardware/")
	want.SetFloat("msgs/000000/t", 98.25)
	want.Fetch("msgs/000000").Attach("data", data)
	want.SetBool("msgs/000001/ok", false)

	b := AppendRawFrame(nil, nil)
	b = AppendRawObject(b, 3)
	b = AppendRawInt(AppendRawName(b, "dropped"), -7)
	b = AppendRawBool(AppendRawName(b, "closed"), true)
	b = AppendRawObject(AppendRawName(b, "msgs"), 2)
	b = AppendRawObject(AppendRawName(b, "000000"), 3)
	b = AppendRawString(AppendRawName(b, "topic"), "ns/hardware/")
	b = AppendRawFloat(AppendRawName(b, "t"), 98.25)
	b = append(AppendRawName(b, "data"), data.EncodeBinary()[4:]...)
	b = AppendRawObject(AppendRawName(b, "000001"), 1)
	b = AppendRawBool(AppendRawName(b, "ok"), false)
	if !bytes.Equal(b, want.EncodeBinary()) {
		got, err := DecodeBinary(b)
		t.Fatalf("raw-written frame differs from the encoder's (%v):\n got %s\nwant %s", err, got.Format(), want.Format())
	}
}
