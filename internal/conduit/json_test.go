package conduit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// jsonOracle is the tree in its natural encoding/json shape — objects as
// map[string]interface{}, leaves as their Value() — which is what MarshalJSON
// handed json.Marshal before AppendJSON wrote JSON itself. A non-finite
// float, which encoding/json refuses, becomes nil, the null AppendJSON
// writes for it.
func jsonOracle(n *Node) interface{} {
	if n == nil {
		return nil
	}
	switch n.kind {
	case KindObject:
		m := make(map[string]interface{}, n.NumChildren())
		for i, name := range n.names() {
			m[name] = jsonOracle(n.at(i))
		}
		return m
	case KindFloat:
		if f := n.float(); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return nil
	case KindFloatArray:
		fa := n.ext.fa
		for _, f := range fa {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				out := make([]interface{}, len(fa))
				for i, f := range fa {
					if !math.IsNaN(f) && !math.IsInf(f, 0) {
						out[i] = f
					}
				}
				return out
			}
		}
		return fa
	default:
		return n.Value()
	}
}

// checkAppendJSON fails unless AppendJSON, MarshalJSON and a RenderJSON with
// no previous doc all write exactly what json.Marshal writes for the oracle.
func checkAppendJSON(t *testing.T, n *Node) []byte {
	t.Helper()
	want, err := json.Marshal(jsonOracle(n))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if got := n.AppendJSON([]byte("x")); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("AppendJSON disagrees with encoding/json:\n got %q\nwant %q", got, want)
	}
	if got, err := n.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON = %q, %v; want %q", got, err, want)
	}
	if got := RenderJSON(nil, n, nil, nil).Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("RenderJSON disagrees with encoding/json:\n got %q\nwant %q", got, want)
	}
	return want
}

// hostileTree holds every case the writer has to get byte-for-byte right.
func hostileTree() *Node {
	n := NewNode()
	n.SetFloat("zeta", 1)
	n.SetFloat("alpha", 2) // names not in sorted order
	n.SetString("esc/html", `<a href="x">&amp;</a>`)
	n.SetString("esc/ctl", "\x00\x01\b\f\n\r\t\x1f\x7f\\\"")
	n.SetString("esc/seps", "line\u2028para\u2029end \u00e9 \U0001F600")
	n.SetString("esc/bad", "a\xffb\xc3(c\xed\xa0\x80")
	n.SetInt("keys/\xff", 1) // two names that both render as \ufffd
	n.SetInt("keys/\xfe", 2)
	n.SetInt("keys/<&>", 3)
	n.SetInt("keys/\u2028", 4)
	n.SetInt("keys/\x01", 5)
	n.SetFloat("f/negzero", math.Copysign(0, -1))
	n.SetFloat("f/tiny", 1e-7)
	n.SetFloat("f/edge_lo", 1e-6)
	n.SetFloat("f/big", 1e21)
	n.SetFloat("f/below_big", 1e20)
	n.SetFloat("f/denormal", 5e-324)
	n.SetFloat("f/max", math.MaxFloat64)
	n.SetFloat("f/neg_tiny", -1.5e-300)
	n.SetFloat("f/frac", 0.1)
	n.SetFloat("f/nan", math.NaN())
	n.SetFloat("f/pinf", math.Inf(1))
	n.SetFloat("f/ninf", math.Inf(-1))
	n.SetInt("i/min", math.MinInt64)
	n.SetInt("i/max", math.MaxInt64)
	n.SetBool("b/t", true)
	n.SetBool("b/f", false)
	n.SetIntArray("a/nil_ints", nil)
	n.SetFloatArray("a/nil_floats", nil)
	n.SetFloatArray("a/floats", []float64{1.5, math.NaN(), math.Copysign(0, -1), 1e-7, math.Inf(-1)})
	n.SetIntArray("a/ints", []int64{-1, 0, 1})
	n.Fetch("empty")
	n.Fetch("childless").own()
	return n
}

func TestAppendJSONHostile(t *testing.T) {
	n := hostileTree()
	// Decoded arrays are never nil: the same tree through the codec has [] where
	// the built one has null.
	dec, err := DecodeBinary(n.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*Node{n, dec, nil, NewNode(), n.Fetch("esc/bad"), n.Fetch("childless")} {
		checkAppendJSON(t, tree)
	}
	got := string(n.AppendJSON(nil))
	for _, want := range []string{
		`"nan":null`, `"pinf":null`, `"ninf":null`, `"floats":[1.5,null,-0,1e-7,null]`,
		`"nil_ints":null`, `"tiny":1e-7`, `"big":1e+21`, `"negzero":-0`,
		`"empty":null`, `"childless":{}`, `"\ufffd":2,"\ufffd":1`,
	} {
		if !bytes.Contains([]byte(got), []byte(want)) {
			t.Errorf("missing %s in %s", want, got)
		}
	}
	if d := string(dec.AppendJSON(nil)); !bytes.Contains([]byte(d), []byte(`"nil_ints":[]`)) {
		t.Errorf("decoded empty array not written []: %s", d)
	}
}

// nilEmptyArrays makes every empty array leaf under n a nil one, which the
// decoder never produces but SetIntArray(nil) does.
func nilEmptyArrays(n *Node) {
	n.Walk(func(_ string, leaf *Node) bool {
		if leaf.kind == KindIntArray && len(leaf.ext.ia) == 0 {
			leaf.ext.ia = nil
		}
		if leaf.kind == KindFloatArray && len(leaf.ext.fa) == 0 {
			leaf.ext.fa = nil
		}
		return true
	})
}

// wideTree is an object of hosts children, each a small object of metrics.
func wideTree(hosts, metrics int, salt float64) *Node {
	n := NewNode()
	for h := 0; h < hosts; h++ {
		for m := 0; m < metrics; m++ {
			n.SetFloat(fmt.Sprintf("cn%03d/m%02d", (h*37)%hosts, m), salt+float64(h*metrics+m)/7)
		}
	}
	return n
}

// FuzzAppendJSON checks AppendJSON byte for byte against json.Marshal of the
// oracle on trees the fuzzer builds: data[0] picks the shape — a decoded
// frame, a MergeCOW of two frames (overlay objects), or a Graft of one onto
// the other, optionally with empty arrays made nil — and data[1:3] where the
// rest splits into the two frames. A combined tree is also rendered against
// a doc of the first frame's tree, whose children it shares.
func FuzzAppendJSON(f *testing.F) {
	frame := func(n *Node) []byte { return n.EncodeBinary() }
	pair := func(mode byte, a, b *Node) []byte {
		fa := frame(a)
		head := binary.BigEndian.AppendUint16([]byte{mode}, uint16(len(fa)))
		return append(append(head, fa...), frame(b)...)
	}
	hostile := hostileTree()
	f.Add(append([]byte{0, 0, 0}, frame(hostile)...))
	f.Add(append([]byte{4, 0, 0}, frame(hostile)...))
	one := func(path string, v float64) *Node { n := NewNode(); n.SetFloat(path, v); return n }
	f.Add(pair(1, wideTree(12, 2, 0), one("cn005/m00", math.NaN())))
	f.Add(pair(2, wideTree(12, 2, 0), one("cn099/m00", 1e21)))
	f.Add(pair(6, wideTree(3, 2, 0), hostile))
	f.Add(pair(1, one("b", 1), one("a/\xff", math.Copysign(0, -1))))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 1<<14 {
			return
		}
		mode, split, rest := data[0], int(binary.BigEndian.Uint16(data[1:])), data[3:]
		if mode%4 == 0 {
			split = len(rest)
		}
		if split > len(rest) {
			return
		}
		a, err := DecodeBinary(rest[:split])
		if err != nil {
			return
		}
		if mode&4 != 0 {
			nilEmptyArrays(a)
		}
		if mode%4 == 0 {
			checkAppendJSON(t, a)
			return
		}
		b, err := DecodeBinary(rest[split:])
		if err != nil {
			return
		}
		if mode&4 != 0 {
			nilEmptyArrays(b)
		}
		var n *Node
		if mode%4 == 1 {
			n = MergeCOW(a, b)
		} else {
			n = Graft(a, b)
		}
		want := checkAppendJSON(t, n)
		prev := RenderJSON([]byte("["), a, []byte("]"), nil)
		if got := RenderJSON([]byte("{"), n, nil, prev).Bytes(); !bytes.Equal(got, append([]byte("{"), want...)) {
			t.Fatalf("re-render against a doc of the base:\n got %q\nwant {%q", got, want)
		}
	})
}

// TestRenderJSONReuse runs seeded sequences of Graft steps — some children
// rewritten, children added out of sort order, a leaf↔object flip, and a full
// re-decode that moves every pointer — rendering each tree against the doc of
// the one before. Every render must equal a fresh AppendJSON of its tree, and
// copy exactly the children whose pointer it kept.
func TestRenderJSONReuse(t *testing.T) {
	prefix, suffix := []byte(`{"data":`), []byte(`}`)
	for _, hosts := range []int{5, 60} { // a small plain object and an indexed one
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cur := wideTree(hosts, 4, 0)
			doc := RenderJSON(prefix, cur, suffix, nil)
			if reused, rendered := doc.Children(); reused != 0 || rendered != hosts {
				t.Fatalf("first render: reused %d rendered %d, want 0 and %d", reused, rendered, hosts)
			}
			for step := 0; step < 60; step++ {
				patch := NewNode()
				names := cur.names()
				switch op := rng.Intn(4); op {
				case 0: // rewrite a few children
					for k := 1 + rng.Intn(3); k > 0; k-- {
						patch.SetFloat(names[rng.Intn(len(names))]+"/m00", rng.Float64())
					}
				case 1: // new children, out of sort order
					patch.SetFloat(fmt.Sprintf("zz%03d/m00", step), 1)
					patch.SetFloat(fmt.Sprintf("aa%03d/m00", step), 2)
				case 2: // leaf ↔ object flip
					name := names[rng.Intn(len(names))]
					if cur.Child(name).Kind() == KindObject {
						patch.SetFloat(name, math.Inf(1))
					} else {
						patch.SetInt(name+"/back", int64(step))
					}
				}
				var next *Node
				if patch.NumChildren() == 0 { // op 3: every pointer moves
					var err error
					if next, err = DecodeBinary(cur.EncodeBinary()); err != nil {
						t.Fatal(err)
					}
				} else {
					next = Graft(cur, patch)
				}
				kept := 0
				for i, name := range next.names() {
					if old := cur.Child(name); old != nil && old == next.at(i) {
						kept++
					}
				}
				doc = RenderJSON(prefix, next, suffix, doc)
				want := append(append(append([]byte{}, prefix...), next.AppendJSON(nil)...), suffix...)
				if !bytes.Equal(doc.Bytes(), want) {
					t.Fatalf("hosts %d seed %d step %d: re-render differs from a fresh AppendJSON:\n got %s\nwant %s",
						hosts, seed, step, doc.Bytes(), want)
				}
				if reused, rendered := doc.Children(); reused != kept || rendered != next.NumChildren()-kept {
					t.Fatalf("hosts %d seed %d step %d: reused %d rendered %d, want %d and %d",
						hosts, seed, step, reused, rendered, kept, next.NumChildren()-kept)
				}
				cur = next
			}
		}
	}
}

// TestRenderJSONNotAnObject: a leaf, an empty node, a childless object and
// nil render whole, between prefix and suffix, whatever prev held.
func TestRenderJSONNotAnObject(t *testing.T) {
	prev := RenderJSON(nil, wideTree(4, 2, 0), nil, nil)
	leaf := NewNode()
	leaf.SetFloat("", math.NaN())
	childless := NewNode()
	childless.own()
	for _, c := range []struct {
		n    *Node
		want string
	}{{nil, "<null>"}, {NewNode(), "<null>"}, {leaf, "<null>"}, {childless, "<{}>"}} {
		d := RenderJSON([]byte("<"), c.n, []byte(">"), prev)
		if string(d.Bytes()) != c.want {
			t.Errorf("RenderJSON = %s, want %s", d.Bytes(), c.want)
		}
		if reused, rendered := d.Children(); reused+rendered != 0 {
			t.Errorf("RenderJSON of a non-object counted %d/%d children", reused, rendered)
		}
	}
}
