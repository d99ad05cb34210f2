package conduit

import (
	"strconv"
	"strings"
	"testing"
)

// mkTree builds a small host-style tree: base/<i>/{a,b} for i in [lo, hi).
func mkTree(base string, lo, hi int) *Node {
	n := NewNode()
	for i := lo; i < hi; i++ {
		p := base + "/" + strconv.Itoa(i)
		n.SetInt(p+"/a", int64(i))
		n.SetFloat(p+"/b", float64(i)/2)
	}
	return n
}

func TestMergeCOWMatchesMerge(t *testing.T) {
	cases := []struct {
		name     string
		dst, src func() *Node
	}{
		{"disjoint", func() *Node { return mkTree("h0", 0, 4) }, func() *Node { return mkTree("h1", 0, 4) }},
		{"overwrite", func() *Node { return mkTree("h0", 0, 8) }, func() *Node { return mkTree("h0", 2, 6) }},
		{"extend", func() *Node { return mkTree("h0", 0, 4) }, func() *Node { return mkTree("h0", 4, 8) }},
		{"leaf over object", func() *Node { return mkTree("h0", 0, 2) }, func() *Node {
			n := NewNode()
			n.SetString("h0/0", "gone")
			return n
		}},
		{"object over leaf", func() *Node {
			n := NewNode()
			n.SetString("h0", "leaf")
			return n
		}, func() *Node { return mkTree("h0", 0, 2) }},
		{"empty dst", func() *Node { return NewNode() }, func() *Node { return mkTree("h0", 0, 2) }},
		{"empty src", func() *Node { return mkTree("h0", 0, 2) }, func() *Node { return NewNode() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst, src := tc.dst(), tc.src()
			before := dst.Clone()
			want := dst.Clone()
			want.Merge(src)
			got := MergeCOW(dst, src)
			if !got.Equal(want) {
				t.Fatalf("MergeCOW disagrees with Merge:\ngot:\n%s\nwant:\n%s", got.Format(), want.Format())
			}
			if !dst.Equal(before) {
				t.Fatalf("MergeCOW mutated dst:\n%s", dst.Format())
			}
		})
	}
}

// TestMergeCOWChain drives many successive small merges onto a wide base so
// the overlay machinery exercises both compaction paths (chain collapse and
// full flatten), and checks the result stays equivalent to mutable Merge at
// every step — including its serialized form, which pins child order.
func TestMergeCOWChain(t *testing.T) {
	snap := mkTree("host", 0, 64)
	mutable := snap.Clone()
	for step := 0; step < 200; step++ {
		upd := mkTree("host", step%80, step%80+2)
		prev := snap
		prevCopy := prev.Clone()
		snap = MergeCOW(snap, upd)
		mutable.Merge(upd)
		if !snap.Equal(mutable) {
			t.Fatalf("step %d: snapshot diverged from Merge: %v", step, snap.Diff(mutable))
		}
		if !prev.Equal(prevCopy) {
			t.Fatalf("step %d: MergeCOW mutated the previous snapshot", step)
		}
	}
	gotBytes := snap.EncodeBinary()
	wantBytes := mutable.EncodeBinary()
	if string(gotBytes) != string(wantBytes) {
		t.Fatal("overlay snapshot serializes differently from the flat merge")
	}
	if n := snap.NumLeaves(); n != mutable.NumLeaves() {
		t.Fatalf("NumLeaves = %d, want %d", n, mutable.NumLeaves())
	}
}

// TestChildrenSinceGraft drives successive MergeCOW generations of a wide
// host object, small and wide updates and new hosts among them, and checks
// that the children ChildrenSince reports between any two generations are
// exactly the ones MergeCOW replaced or added, and that grafting them onto
// the older generation reproduces the newer one byte for byte.
func TestChildrenSinceGraft(t *testing.T) {
	gens := []*Node{mkTree("host", 0, 40)}
	for step := 0; step < 120; step++ {
		lo := (step * 7) % 48
		hi := lo + 1 + step%3
		if step%17 == 0 {
			hi = lo + 30 // wide: most hosts rewritten
		}
		gens = append(gens, MergeCOW(gens[len(gens)-1], mkTree("host", lo, hi)))
	}
	patched := 0
	for i := 1; i < len(gens); i++ {
		for _, back := range []int{1, 2, 5} {
			if i < back {
				continue
			}
			oldH, _ := gens[i-back].Get("host")
			curH, _ := gens[i].Get("host")
			limit := (curH.NumChildren() - 1) / 2
			patch, ok := ChildrenSince(oldH, curH, limit)
			changed := 0
			for j, name := range curH.names() {
				if j >= oldH.NumChildren() || oldH.Child(name) != curH.at(j) {
					changed++
				}
			}
			if ok != (changed <= limit) {
				t.Fatalf("gen %d-%d: ok=%v with %d of %d children changed", i-back, i, ok, changed, curH.NumChildren())
			}
			if !ok {
				continue
			}
			patched++
			if patch.NumChildren() != changed {
				t.Fatalf("gen %d-%d: patch holds %d children, %d changed", i-back, i, patch.NumChildren(), changed)
			}
			oldCopy := oldH.EncodeBinary()
			if got := Graft(oldH, patch); string(got.EncodeBinary()) != string(curH.EncodeBinary()) || !got.Equal(curH) {
				t.Fatalf("gen %d-%d: graft differs from the newer generation", i-back, i)
			}
			if string(oldH.EncodeBinary()) != string(oldCopy) {
				t.Fatalf("gen %d-%d: graft modified its base", i-back, i)
			}
		}
	}
	if patched == 0 {
		t.Fatal("no generation pair was patchable")
	}
	leaf := NewNode()
	leaf.SetInt("", 1)
	if _, ok := ChildrenSince(leaf, gens[0], 100); ok {
		t.Fatal("a leaf base was patched")
	}
	a, _ := mkTree("host", 0, 4).Get("host")
	b, _ := mkTree("host", 1, 5).Get("host")
	if _, ok := ChildrenSince(a, b, 100); ok {
		t.Fatal("a base whose names are not a prefix was patched")
	}
}

// TestGraftMatchesCloneAttach holds Graft to its definition — a clone of dst
// with each patch child attached in order — on small, wide and overlay dsts,
// a dst that is not an object, and a patch that repeats a name, and checks
// that dst is left alone.
func TestGraftMatchesCloneAttach(t *testing.T) {
	overlay := MergeCOW(mkTree("h", 0, 40), mkTree("h", 3, 5))
	overlayH, _ := overlay.Get("h")
	smallH, _ := mkTree("h", 0, 4).Get("h")
	wideH, _ := mkTree("h", 0, 40).Get("h")
	leaf := NewNode()
	leaf.SetFloat("", 2)
	dsts := map[string]*Node{"small": smallH, "wide": wideH, "overlay": overlayH, "leaf": leaf, "empty": NewNode()}
	patches := map[string]*Node{"none": {kind: KindObject}}
	for _, names := range [][]string{{"2"}, {"1", "99", "3"}, {"7", "7", "50"}} {
		p := &Node{kind: KindObject, ext: &nodeExt{}}
		for i, name := range names {
			c := NewNode()
			c.SetInt("v", int64(100+i))
			p.ext.names = append(p.ext.names, name) // repeats kept on purpose
			p.ext.vals = append(p.ext.vals, c)
		}
		patches[strings.Join(names, ",")] = p
	}
	for dn, dst := range dsts {
		for pn, patch := range patches {
			before := dst.EncodeBinary()
			want := dst.Clone()
			for i, name := range patch.names() {
				want.Attach(name, patch.at(i))
			}
			if want.kind != KindObject {
				want = &Node{kind: KindObject} // Attach never ran on a leaf
			}
			got := Graft(dst, patch)
			if string(got.EncodeBinary()) != string(want.EncodeBinary()) {
				t.Errorf("%s+%s: graft\n%s\nwant\n%s", dn, pn, got.Format(), want.Format())
			}
			for _, name := range want.names() {
				if !got.Child(name).Equal(want.Child(name)) {
					t.Errorf("%s+%s: child %q does not resolve", dn, pn, name)
				}
			}
			if string(dst.EncodeBinary()) != string(before) {
				t.Errorf("%s+%s: graft modified dst", dn, pn)
			}
		}
	}
}

// TestMergeCOWSharing verifies untouched subtrees are shared by reference,
// not copied — the property that makes snapshot rebuilds O(delta).
func TestMergeCOWSharing(t *testing.T) {
	dst := mkTree("h0", 0, 4)
	dst.Merge(mkTree("h1", 0, 4))
	src := mkTree("h1", 4, 5)
	out := MergeCOW(dst, src)
	d, _ := dst.Get("h0")
	o, _ := out.Get("h0")
	if o != d {
		t.Fatal("untouched subtree was copied instead of shared")
	}
	s, _ := src.Get("h1/4")
	o4, _ := out.Get("h1/4")
	if o4 != s {
		t.Fatal("src-only subtree was copied instead of shared")
	}
}

// TestOverlayMutationFlattens checks the mutating entry points materialize a
// COW overlay before writing, so later writes never scribble on shared maps.
func TestOverlayMutationFlattens(t *testing.T) {
	dst := mkTree("host", 0, 32)
	dstCopy := dst.Clone()
	out := MergeCOW(dst, mkTree("host", 10, 12))

	out.SetInt("extra/leaf", 7)
	if v, ok := out.Int("extra/leaf"); !ok || v != 7 {
		t.Fatal("write to overlay node lost")
	}
	if !out.Has("host/31/a") {
		t.Fatal("flattened overlay lost base children")
	}
	if !dst.Equal(dstCopy) {
		t.Fatal("mutating the overlay changed the base tree")
	}

	out2 := MergeCOW(dst, mkTree("host", 2, 4))
	if !out2.Remove("host") {
		t.Fatal("Remove on overlay node failed")
	}
	if out2.Has("host") {
		t.Fatal("child still present after Remove")
	}
	if !dst.Has("host/0/a") || !dst.Equal(dstCopy) {
		t.Fatal("Remove on the overlay changed the base tree")
	}
}

func TestAttach(t *testing.T) {
	child := mkTree("x", 0, 2)
	n := NewNode()
	n.SetInt("first", 1)
	n.Attach("data", child)
	if got := n.Child("data"); got != child {
		t.Fatal("Attach copied instead of sharing")
	}
	if names := n.ChildNames(); len(names) != 2 || names[0] != "first" || names[1] != "data" {
		t.Fatalf("ChildNames = %v", names)
	}
	// Replacing keeps the original order slot.
	other := NewNode()
	other.SetBool("ok", true)
	n.Attach("data", other)
	if got := n.Child("data"); got != other {
		t.Fatal("Attach did not replace existing child")
	}
	if n.NumChildren() != 2 {
		t.Fatalf("NumChildren = %d after replace", n.NumChildren())
	}
	// Attaching to a leaf converts it to an object, like Fetch does.
	leaf := NewNode()
	leaf.SetInt("", 5)
	leaf.Attach("c", child)
	if leaf.Kind() != KindObject || leaf.Child("c") != child {
		t.Fatal("Attach on a leaf did not convert it to an object")
	}
}

func TestAppendBinaryAndPool(t *testing.T) {
	n := mkTree("host", 0, 16)
	want := n.EncodeBinary()

	bp := GetEncodeBuffer()
	*bp = n.AppendBinary(*bp)
	if string(*bp) != string(want) {
		t.Fatal("AppendBinary differs from EncodeBinary")
	}
	dec, err := DecodeBinary(*bp)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(n) {
		t.Fatal("round trip through pooled buffer failed")
	}
	PutEncodeBuffer(bp)

	// Reused buffers must be reset to empty.
	bp2 := GetEncodeBuffer()
	if len(*bp2) != 0 {
		t.Fatalf("pooled buffer not reset: len=%d", len(*bp2))
	}
	PutEncodeBuffer(bp2)

	// Appending after existing content preserves the prefix.
	buf := []byte("prefix")
	buf = n.AppendBinary(buf)
	if string(buf[:6]) != "prefix" {
		t.Fatal("AppendBinary clobbered existing content")
	}
	dec2, err := DecodeBinary(buf[6:])
	if err != nil || !dec2.Equal(n) {
		t.Fatalf("decode after prefix failed: %v", err)
	}
}
