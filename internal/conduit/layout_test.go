package conduit

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// hostileCountFrames are nine-byte tree frames whose only content is a count
// of 1<<24 — the largest maxDecodeItems admits — with nothing behind it: an
// object, an int array and a float array.
func hostileCountFrames() [][]byte {
	var out [][]byte
	for _, k := range []Kind{KindObject, KindIntArray, KindFloatArray} {
		out = append(out, appendUvarint(append(binMagic[:len(binMagic):len(binMagic)], byte(k)), maxDecodeItems))
	}
	return out
}

// nestedCountFrame is a frame of the given size whose every level is an object
// claiming half of the bytes that follow it as children: each count passes
// the bytes-that-remain test on its own, and together they claim the frame
// maxDepth times over. The unnamed children are zero bytes to the end.
func nestedCountFrame(size int) []byte {
	frame := append(make([]byte, 0, size), binMagic[:]...)
	frame = append(frame, byte(KindObject))
	for depth := 0; depth < maxDepth; depth++ {
		frame = appendUvarint(frame, uint64(size-len(frame)-3)/minChildBytes)
		frame = append(frame, 0, byte(KindObject)) // a child named "", an object again
	}
	return frame[:size]
}

// allocatedBy reports the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCountsAllocateNothing: a count the frame cannot back is refused
// before anything is sized by it — in all three readers, which must keep
// agreeing on what a frame is. (At the parent commit DecodeBinary allocated
// 1 109 MB for the object form and 128 MB for each array form.)
func TestHostileCountsAllocateNothing(t *testing.T) {
	for _, frame := range hostileCountFrames() {
		readers := map[string]func() error{
			"DecodeBinary":          func() error { _, err := DecodeBinary(frame); return err },
			"ValidateBinary":        func() error { return ValidateBinary(frame) },
			"MergeBinaryIntoCached": func() error { return MergeBinaryIntoCached(NewNode(), frame, nil) },
		}
		for name, read := range readers {
			var err error
			if got := allocatedBy(func() { err = read() }); got >= 1<<20 {
				t.Errorf("%s(kind %d, count 1<<24) allocated %d bytes, want < 1 MB", name, frame[4], got)
			}
			if err == nil {
				t.Errorf("%s accepted a frame with a count and no elements", name)
			}
		}
	}
}

// TestNestedCountsAllocateOnce: counts are bounded in sum, not only one by
// one — the first level of a nestedCountFrame is sized (a frame that long
// could hold that many children), every deeper claim is refused. (Bounded
// only by the bytes that remain, the 64 KiB frame pre-sized names, children
// and an index for 32 000 children at each of 512 levels: ≈ 0.9 GB.)
func TestNestedCountsAllocateOnce(t *testing.T) {
	frame := nestedCountFrame(64 << 10)
	readers := map[string]func() error{
		"DecodeBinary":          func() error { _, err := DecodeBinary(frame); return err },
		"ValidateBinary":        func() error { return ValidateBinary(frame) },
		"MergeBinaryIntoCached": func() error { return MergeBinaryIntoCached(NewNode(), frame, nil) },
	}
	for name, read := range readers {
		var err error
		if got := allocatedBy(func() { err = read() }); got >= uint64(64*len(frame)) {
			t.Errorf("%s allocated %d bytes for a %d-byte frame, want < 64 bytes per byte", name, got, len(frame))
		}
		if err != ErrTruncated {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
	}
}

// TestZeroCountSpelledLong: 0x80 0x00 is a count of zero as far as
// binary.Uvarint is concerned, and the object it heads must come out of the
// wire fold as it comes out of decode-then-Merge: not there.
func TestZeroCountSpelledLong(t *testing.T) {
	frame := append(binMagic[:len(binMagic):len(binMagic)],
		byte(KindObject), 1, 1, 'a', byte(KindObject), 0x80, 0x00)
	folded := NewNode()
	if err := MergeBinaryIntoCached(folded, frame, nil); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewNode()
	merged.Merge(dec)
	if !bytes.Equal(folded.EncodeBinary(), merged.EncodeBinary()) {
		t.Errorf("wire fold gives\n%sdecode-then-Merge gives\n%s", folded.Format(), merged.Format())
	}
}

// TestNodeFootprint pins what the layout is for: a 40-byte header, and a
// decode of the LOAD-shaped frame that costs a fraction of an allocation and
// about a hundred bytes per leaf (parent commit: 136 B header, 245 B and
// 1.36 allocations per leaf).
func TestNodeFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 40 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want <= 40", sz)
	}
	const leaves = 1250 * 16
	enc := loadTree(1250, 16).EncodeBinary()
	decode := func() {
		if _, err := DecodeBinary(enc); err != nil {
			t.Fatal(err)
		}
	}
	if perLeaf := testing.AllocsPerRun(10, decode) / leaves; perLeaf > 0.1 {
		t.Errorf("decode costs %.3f allocations per leaf, want <= 0.1", perLeaf)
	}
	const runs = 10
	bytesPerLeaf := float64(allocatedBy(func() {
		for i := 0; i < runs; i++ {
			decode()
		}
	})) / runs / leaves
	if bytesPerLeaf > 110 {
		t.Errorf("decode costs %.1f B per leaf, want <= 110", bytesPerLeaf)
	}
}

// TestNumLeavesAllocatesNothing: soma.stats counts leaves on every call; the
// count must not build a path per leaf to do it.
func TestNumLeavesAllocatesNothing(t *testing.T) {
	n := loadTree(40, 16)
	n.Fetch("LOAD/empty") // an Empty child is a leaf to Walk, so to NumLeaves too
	over := MergeCOW(n, loadTree(41, 17))
	for _, tree := range []*Node{n, over} {
		want := 0
		tree.Walk(func(string, *Node) bool { want++; return true })
		if got := tree.NumLeaves(); got != want {
			t.Errorf("NumLeaves = %d, Walk visits %d", got, want)
		}
		if a := testing.AllocsPerRun(20, func() { _ = tree.NumLeaves() }); a != 0 {
			t.Errorf("NumLeaves allocates %.0f times, want 0", a)
		}
	}
}

// TestSharedReads: a decoded tree and a MergeCOW result are read-only
// structures — lookups build and cache nothing — so any number of goroutines
// may read them at once. Meaningful under -race.
func TestSharedReads(t *testing.T) {
	base := loadTree(40, 16) // LOAD is wide (indexed), every host small
	decoded, err := DecodeBinary(base.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	overlay := MergeCOW(decoded, loadTree(44, 2))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, tree := range []*Node{decoded, overlay} {
				want := tree.NumLeaves()
				for i := 0; i < 20; i++ {
					if _, ok := tree.Get(fmt.Sprintf("LOAD/cn%05d/s%02d", (g+i)%40, i%16)); !ok {
						t.Errorf("goroutine %d: leaf missing", g)
					}
					seen := 0
					tree.Walk(func(string, *Node) bool { seen++; return true })
					if seen != want {
						t.Errorf("goroutine %d: Walk saw %d leaves, want %d", g, seen, want)
					}
					if dec, err := DecodeBinary(tree.AppendBinary(nil)); err != nil || !dec.Equal(tree) {
						t.Errorf("goroutine %d: frame encoded beside other readers does not decode back: %v", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// A decoded tree is a tree: op sequences applied in lock-step to a tree built
// with the mutating API and to its decoded twin.

// opStream turns bytes — a fuzz input, or a seeded random string — into
// operations.
type opStream struct {
	data []byte
	wide int // children of the "wide" object
}

func (s *opStream) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// path picks a leaf path under one of the sized objects — an existing child
// or one just past the end, sometimes one level deeper (which re-shapes a
// leaf into an object) — or a top-level name.
func (s *opStream) path() string {
	objs := []struct {
		name string
		n    int
	}{{"e0", 0}, {"e1", 1}, {"e16", 16}, {"e17", 17}, {"wide", s.wide}}
	b := s.next()
	if b%8 == 7 {
		return fmt.Sprintf("top%d", b>>3&3)
	}
	o := objs[b%8%len(objs)]
	p := fmt.Sprintf("%s/k%04d", o.name, (s.next()<<8|s.next())%(o.n+3))
	if b&64 != 0 {
		p += fmt.Sprintf("/d%d", b>>7)
	}
	return p
}

// set stores a value chosen by the stream at path.
func (s *opStream) set(n *Node, path string) {
	v := s.next()
	switch v % 6 {
	case 0:
		n.SetInt(path, int64(v)-100)
	case 1:
		n.SetFloat(path, float64(v)/8)
	case 2:
		n.SetString(path, fmt.Sprint("s", v))
	case 3:
		n.SetBool(path, v&8 != 0)
	case 4:
		n.SetIntArray(path, []int64{int64(v), -1}[:v>>3%3])
	case 5:
		n.SetFloatArray(path, []float64{float64(v), 0.5}[:v>>3%3])
	}
}

// tree builds a source tree of up to 23 leaves for Merge, MergeCOW and
// Attach — enough to carry a small object past smallObject.
func (s *opStream) tree() *Node {
	n := NewNode()
	for i := s.next() % 24; i > 0; i-- {
		s.set(n, s.path())
	}
	return n
}

// sizedTree holds objects of 0, 1, 16, 17 and wide children.
func sizedTree(wide int) *Node {
	n := NewNode()
	for _, o := range []struct {
		name string
		n    int
	}{{"e1", 1}, {"e16", 16}, {"e17", 17}, {"wide", wide}} {
		for i := 0; i < o.n; i++ {
			n.SetInt(fmt.Sprintf("%s/k%04d", o.name, i), int64(i))
		}
	}
	n.SetInt("e0/gone", 1)
	n.Remove("e0/gone")
	return n
}

func mustDecode(t testing.TB, n *Node) *Node {
	t.Helper()
	dec, err := DecodeBinary(n.EncodeBinary())
	if err != nil {
		t.Fatalf("decode of an encoded tree: %v", err)
	}
	return dec
}

// sameTree fails unless a built tree and its decoded twin are the same tree
// to every observer: Equal both ways, leaf order, and the bytes they encode
// to (which must themselves validate and decode back).
func sameTree(t testing.TB, step int, what string, built, decoded *Node) {
	t.Helper()
	if !built.Equal(decoded) || !decoded.Equal(built) {
		t.Fatalf("step %d (%s): trees differ at %v\nbuilt:\n%s\ndecoded:\n%s", step, what, built.diff(decoded), built.Format(), decoded.Format())
	}
	if bl, dl := built.Leaves(), decoded.Leaves(); !slices.Equal(bl, dl) {
		t.Fatalf("step %d (%s): leaf order differs:\nbuilt   %v\ndecoded %v", step, what, bl, dl)
	}
	if n := decoded.NumLeaves(); n != len(decoded.Leaves()) {
		t.Fatalf("step %d (%s): NumLeaves %d, Leaves %d", step, what, n, len(decoded.Leaves()))
	}
	be, de := built.EncodeBinaryStable(), decoded.EncodeBinaryStable()
	if !bytes.Equal(be, de) {
		t.Fatalf("step %d (%s): encodings differ", step, what)
	}
	if err := ValidateBinary(de); err != nil {
		t.Fatalf("step %d (%s): encoding does not validate: %v", step, what, err)
	}
	if again := mustDecode(t, decoded); !again.Equal(built) {
		t.Fatalf("step %d (%s): re-decoded tree differs at %v", step, what, again.diff(built))
	}
}

// runNodeOps applies the stream's operations to built and to decoded alike
// and compares them after every step.
func runNodeOps(t testing.TB, s *opStream, built, decoded *Node) {
	sameTree(t, 0, "start", built, decoded)
	for step := 1; len(s.data) > 0; step++ {
		op := s.next() % 12
		var what string
		switch op {
		case 0, 1, 2:
			what = "Set"
			p, rest := s.path(), *s
			s.set(built, p)
			rest.set(decoded, p)
		case 3:
			what = "Fetch"
			p := s.path()
			built.Fetch(p)
			decoded.Fetch(p)
		case 4:
			what = "Remove"
			p := s.path()
			if br, dr := built.Remove(p), decoded.Remove(p); br != dr {
				t.Fatalf("step %d: Remove(%q) = %v built, %v decoded", step, p, br, dr)
			}
		case 5:
			what = "Attach"
			p, child := s.path(), s.tree()
			built.Fetch(p).Attach("att", child)
			decoded.Fetch(p).Attach("att", mustDecode(t, child))
		case 6:
			what = "Merge"
			src := s.tree()
			built.Merge(src)
			decoded.Merge(mustDecode(t, src))
		case 7, 8:
			what = "MergeCOW onto"
			src := s.tree()
			before := decoded.EncodeBinaryStable()
			prev := decoded
			built, decoded = MergeCOW(built, src), MergeCOW(decoded, mustDecode(t, src))
			if !bytes.Equal(prev.EncodeBinaryStable(), before) {
				t.Fatalf("step %d: MergeCOW changed the tree it merged onto", step)
			}
		case 9:
			what = "MergeCOW from"
			base := s.tree()
			built, decoded = MergeCOW(base, built), MergeCOW(mustDecode(t, base), decoded)
		case 10:
			what = "Clone"
			built, decoded = built.Clone(), decoded.Clone()
		case 11:
			what = "re-decode"
			decoded = mustDecode(t, decoded)
		}
		sameTree(t, step, what, built, decoded)
	}
}

// dupFrame is a hostile frame whose root repeats names: a leaf, then an
// object, then a leaf under "a"; two objects under "b" that must union; and
// seventeen more children so the repeats land in an indexed object too when
// wide is set.
func dupFrame(wide bool) (frame []byte, want *Node) {
	type kv struct {
		name string
		node func() *Node
	}
	leaf := func(v int64) func() *Node {
		return func() *Node { n := NewNode(); n.SetInt("", v); return n }
	}
	obj := func(path string) func() *Node {
		return func() *Node { n := NewNode(); n.SetInt(path, 7); return n }
	}
	kids := []kv{{"a", leaf(1)}, {"b", obj("x")}, {"a", obj("y/z")}, {"c", leaf(3)}, {"b", obj("w")}, {"a", leaf(2)}}
	if wide {
		for i := 0; i < 17; i++ {
			kids = append(kids, kv{fmt.Sprintf("m%02d", 16-i), leaf(int64(i))})
		}
		kids = append(kids, kv{"m03", obj("deep")})
	}
	frame = AppendRawFrame(nil, nil)
	frame = AppendRawObject(frame, len(kids))
	want = NewNode()
	for _, k := range kids {
		frame = AppendRawName(frame, k.name)
		frame = append(frame, k.node().EncodeBinary()[4:]...)
		want.Fetch(k.name).Merge(k.node())
	}
	return frame, want
}

func TestDecodedTreeIsATree(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		wide := 40
		if seed%4 == 0 {
			wide = 1250
		}
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		built := sizedTree(wide)
		runNodeOps(t, &opStream{data: ops, wide: wide}, built, mustDecode(t, built))
	}
	for _, wide := range []bool{false, true} {
		frame, built := dupFrame(wide)
		decoded, err := DecodeBinary(frame)
		if err != nil {
			t.Fatalf("duplicate-name frame: %v", err)
		}
		ops := make([]byte, 300)
		rand.New(rand.NewSource(99)).Read(ops)
		runNodeOps(t, &opStream{data: ops, wide: 20}, built, decoded)
	}
}

// TestRemoveKeepsSharedNames: a MergeCOW result aliases the names of the
// node it was merged onto; removing a child from the result must not shift
// them under that node.
func TestRemoveKeepsSharedNames(t *testing.T) {
	for _, width := range []int{3, 40} {
		dst := mkTree("h", 0, width)
		want := dst.EncodeBinary()
		out := MergeCOW(dst, mkTree("h", 1, 2))
		if !out.Remove("h/0") || out.Has("h/0") {
			t.Fatalf("width %d: Remove on the merge result failed", width)
		}
		if !bytes.Equal(dst.EncodeBinary(), want) {
			t.Fatalf("width %d: Remove on the merge result re-ordered the base:\n%s", width, dst.Format())
		}
	}
}

// FuzzNodeOps is TestDecodedTreeIsATree with the fuzzer choosing the
// operations: the first byte picks the starting pair, the rest is the stream.
func FuzzNodeOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(ops)
		ops[0] = byte(seed)
		f.Add(ops)
	}
	// Found by this target: a small object merged past smallObject children
	// whose later src name overrode an earlier child.
	f.Add([]byte("700100\"9\xac00000000700000#71"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		s := &opStream{data: data[1:], wide: 20}
		var built, decoded *Node
		switch data[0] % 4 {
		case 0, 1:
			built = sizedTree(s.wide)
			decoded = mustDecode(t, built)
		default:
			var frame []byte
			frame, built = dupFrame(data[0]%4 == 3)
			var err error
			if decoded, err = DecodeBinary(frame); err != nil {
				t.Fatal(err)
			}
		}
		runNodeOps(t, s, built, decoded)
	})
}

// TestWireMergeSeenPathAllocatesNothing: folding a frame whose paths the
// accumulator already holds resolves every name from the frame's bytes — no
// string is built to look a child up.
func TestWireMergeSeenPathAllocatesNothing(t *testing.T) {
	frame := loadTree(2, 20).EncodeBinary() // a small and an indexed level
	acc := NewNode()
	if err := MergeBinaryIntoCached(acc, frame, nil); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { _ = MergeBinaryIntoCached(acc, frame, nil) }); a != 0 {
		t.Errorf("re-merging a seen frame allocates %.0f times, want 0", a)
	}
}
