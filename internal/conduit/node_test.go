package conduit

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// diff returns the leaf paths at which n and other disagree (missing on
// either side or different values), sorted lexically: what a test names when
// two trees that should be equal are not.
func (n *Node) diff(other *Node) []string {
	seen := map[string]bool{}
	var out []string
	n.Walk(func(path string, leaf *Node) bool {
		o, ok := other.Get(path)
		if !ok || !leaf.Equal(o) {
			out = append(out, path)
		}
		seen[path] = true
		return true
	})
	other.Walk(func(path string, _ *Node) bool {
		if !seen[path] {
			out = append(out, path)
		}
		return true
	})
	sort.Strings(out)
	return out
}

func TestEmptyNode(t *testing.T) {
	n := NewNode()
	if !n.IsEmpty() {
		t.Fatal("new node should be empty")
	}
	if n.isLeaf() {
		t.Fatal("empty node is not a leaf")
	}
	if n.NumChildren() != 0 {
		t.Fatal("empty node has no children")
	}
	if n.NumLeaves() != 0 {
		t.Fatalf("empty node has %d leaves, want 0", n.NumLeaves())
	}
}

func TestSetGetScalars(t *testing.T) {
	n := NewNode()
	n.SetInt("a/b/i", 42)
	n.SetFloat("a/b/f", 3.5)
	n.SetString("a/s", "hello")
	n.SetBool("a/t", true)

	if v, ok := n.Int("a/b/i"); !ok || v != 42 {
		t.Errorf("Int = %v,%v want 42,true", v, ok)
	}
	if v, ok := n.Float("a/b/f"); !ok || v != 3.5 {
		t.Errorf("Float = %v,%v want 3.5,true", v, ok)
	}
	if v, ok := n.StringVal("a/s"); !ok || v != "hello" {
		t.Errorf("StringVal = %q,%v", v, ok)
	}
	if v, ok := n.Bool("a/t"); !ok || !v {
		t.Errorf("Bool = %v,%v", v, ok)
	}
}

func TestNumericConversions(t *testing.T) {
	n := NewNode()
	n.SetInt("i", 7)
	n.SetFloat("f", 2.9)
	if v, ok := n.Float("i"); !ok || v != 7.0 {
		t.Errorf("Float(int leaf) = %v,%v want 7,true", v, ok)
	}
	if v, ok := n.Int("f"); !ok || v != 2 {
		t.Errorf("Int(float leaf) = %v,%v want 2,true", v, ok)
	}
	if _, ok := n.Int("missing"); ok {
		t.Error("Int on missing path should fail")
	}
}

func TestArrays(t *testing.T) {
	n := NewNode()
	src := []int64{1, 2, 3}
	n.SetIntArray("cpu", src)
	src[0] = 99 // must not alias
	got, ok := n.IntArray("cpu")
	if !ok || !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("IntArray = %v,%v", got, ok)
	}
	n.SetFloatArray("util", []float64{0.5, 0.75})
	fa, ok := n.FloatArray("util")
	if !ok || len(fa) != 2 || fa[1] != 0.75 {
		t.Errorf("FloatArray = %v,%v", fa, ok)
	}
}

func TestFetchCreatesIntermediates(t *testing.T) {
	n := NewNode()
	leaf := n.Fetch("x/y/z")
	if !leaf.IsEmpty() {
		t.Fatal("fetched leaf should start empty")
	}
	if !n.Has("x/y") {
		t.Fatal("intermediate x/y should now exist")
	}
	if _, ok := n.Get("x/nope"); ok {
		t.Fatal("Get must not create")
	}
}

func TestPathNormalization(t *testing.T) {
	n := NewNode()
	n.SetInt("a//b/", 1)
	if v, ok := n.Int("a/b"); !ok || v != 1 {
		t.Errorf("path with empty segments should normalize: %v,%v", v, ok)
	}
	if got := n.Fetch(""); got != n {
		t.Error("empty path should return the node itself")
	}
}

func TestLeafOverwriteByChildren(t *testing.T) {
	n := NewNode()
	n.SetInt("a", 1)
	n.SetInt("a/b", 2) // converts the leaf into an object
	if v, ok := n.Int("a/b"); !ok || v != 2 {
		t.Fatalf("a/b = %v,%v", v, ok)
	}
	if _, ok := n.Int("a"); ok {
		t.Fatal("a should no longer be an int leaf")
	}
}

func TestRemove(t *testing.T) {
	n := NewNode()
	n.SetInt("a/b", 1)
	n.SetInt("a/c", 2)
	if !n.Remove("a/b") {
		t.Fatal("Remove existing failed")
	}
	if n.Has("a/b") {
		t.Fatal("a/b still present")
	}
	if n.Remove("a/b") {
		t.Fatal("second Remove should be false")
	}
	if n.Remove("") {
		t.Fatal("Remove of empty path should be false")
	}
	if got := n.Child("a").ChildNames(); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("order after remove = %v", got)
	}
}

func TestChildOrderPreserved(t *testing.T) {
	n := NewNode()
	names := []string{"zeta", "alpha", "mid", "beta"}
	for i, nm := range names {
		n.SetInt(nm, int64(i))
	}
	if got := n.ChildNames(); !reflect.DeepEqual(got, names) {
		t.Fatalf("ChildNames = %v want %v", got, names)
	}
	if got := n.Leaves(); !reflect.DeepEqual(got, names) {
		t.Fatalf("Leaves = %v want %v", got, names)
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := NewNode()
	n.SetString("rp/task.000000/ev", "launch_start")
	n.SetFloatArray("hw/util", []float64{0.1})
	c := n.Clone()
	n.SetString("rp/task.000000/ev", "changed")
	fa, _ := n.FloatArray("hw/util")
	fa[0] = 9 // mutate original backing array
	if v, _ := c.StringVal("rp/task.000000/ev"); v != "launch_start" {
		t.Error("clone shares string leaf")
	}
	cfa, _ := c.FloatArray("hw/util")
	if cfa[0] != 0.1 {
		t.Error("clone shares float array")
	}
}

func TestMerge(t *testing.T) {
	a := NewNode()
	a.SetInt("x/keep", 1)
	a.SetInt("x/clobber", 1)
	b := NewNode()
	b.SetInt("x/clobber", 2)
	b.SetInt("y/new", 3)
	a.Merge(b)
	if v, _ := a.Int("x/keep"); v != 1 {
		t.Error("merge dropped unrelated leaf")
	}
	if v, _ := a.Int("x/clobber"); v != 2 {
		t.Error("merge did not overwrite")
	}
	if v, _ := a.Int("y/new"); v != 3 {
		t.Error("merge did not add")
	}
	a.Merge(nil) // must be a no-op
	if a.NumLeaves() != 3 {
		t.Error("merge(nil) changed node")
	}
}

func TestMergeLeafIntoNode(t *testing.T) {
	a := NewNode()
	a.SetInt("v", 1)
	leaf := NewNode()
	leaf.SetString("", "") // stays empty: SetString("") sets the node itself
	b := NewNode()
	b.Fetch("v").setScalar(KindString, 0, "now-a-string")
	a.Merge(b)
	if v, ok := a.StringVal("v"); !ok || v != "now-a-string" {
		t.Errorf("leaf type overwrite failed: %q %v", v, ok)
	}
	_ = leaf
}

func TestWalkEarlyStop(t *testing.T) {
	n := NewNode()
	for i := 0; i < 5; i++ {
		n.SetInt(strings.Repeat("k", i+1), int64(i))
	}
	count := 0
	n.Walk(func(string, *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("walk visited %d leaves, want 3", count)
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := NewNode()
	a.SetInt("x", 1)
	a.SetString("s", "v")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone should be equal")
	}
	if d := a.diff(b); len(d) != 0 {
		t.Fatalf("diff of equal trees = %v", d)
	}
	b.SetInt("x", 2)
	b.SetInt("extra", 3)
	a.SetInt("only_a", 4)
	d := a.diff(b)
	want := []string{"extra", "only_a", "x"}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("diff = %v want %v", d, want)
	}
	if a.Equal(b) {
		t.Fatal("modified trees should differ")
	}
}

func TestEqualKindMismatch(t *testing.T) {
	a := NewNode()
	a.SetInt("k", 1)
	b := NewNode()
	b.SetFloat("k", 1)
	if a.Equal(b) {
		t.Fatal("int leaf should not equal float leaf")
	}
	var nilNode *Node
	if nilNode.Equal(a) || a.Equal(nilNode) {
		t.Fatal("nil comparisons should be false")
	}
	if !nilNode.Equal(nilNode) {
		t.Fatal("nil == nil")
	}
}

func TestFormatMatchesListingStyle(t *testing.T) {
	n := NewNode()
	n.SetString("RP/task.000000/1698435412.6060030", "launch_start")
	out := n.Format()
	for _, want := range []string{"RP:", "task.000000:", "launch_start"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindEmpty:      "empty",
		KindObject:     "object",
		KindInt:        "int64",
		KindFloatArray: "float64_array",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q want %q", k, k.String(), want)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestValueInterface(t *testing.T) {
	n := NewNode()
	n.SetBool("b", true)
	c, _ := n.Get("b")
	if v, ok := c.Value().(bool); !ok || !v {
		t.Errorf("Value() = %v", c.Value())
	}
	if NewNode().Value() != nil {
		t.Error("empty node Value should be nil")
	}
}
