package conduit

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

type codecLevel string

type codecItem struct {
	Name  string  `conduit:"name"`
	Score float64 `conduit:"score"`
}

// codecFixture holds every kind the codec carries.
type codecFixture struct {
	Label  codecLevel               `conduit:"label"`
	On     bool                     // untagged: the child is "On"
	Small  int8                     `conduit:"small"`
	Count  int                      `conduit:"count"`
	ID     uint64                   `conduit:"id"`
	Dur    time.Duration            `conduit:"dur_ns"`
	At     time.Time                `conduit:"at_ns"`
	Floats []float64                `conduit:"floats"`
	Ints   []int64                  `conduit:"ints"`
	Blob   []byte                   `conduit:"blob"`
	Items  []codecItem              `conduit:"items"`
	ByName map[codecLevel]codecItem `conduit:"by_name"`
	Next   *codecItem               `conduit:"next"`
	Local  string                   `conduit:"-"`
	hidden int
}

func fullFixture() codecFixture {
	return codecFixture{
		Label: "1s", On: true, Small: -7, Count: 42, ID: 1<<63 | 5,
		Dur: 3 * time.Millisecond, At: time.Unix(0, 1_700_000_000_123_456_789),
		Floats: []float64{0.5, math.Inf(-1)}, Ints: []int64{-1, 1 << 40}, Blob: []byte{0, 0xff, 'x'},
		Items:  []codecItem{{"a", 1}, {"b", 2}},
		ByName: map[codecLevel]codecItem{"x/y": {"slash", 3}, "": {"empty", 4}},
		Next:   &codecItem{"next", 5},
	}
}

// reencode is what the RPC plane does between Marshal and Unmarshal.
func reencode(t *testing.T, n *Node) *Node {
	t.Helper()
	out, err := DecodeBinary(n.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, want := range []codecFixture{fullFixture(), {}} {
		var got codecFixture
		if err := Unmarshal(reencode(t, Marshal(want)), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
	// A pointer marshals as what it points to.
	want := fullFixture()
	if !bytes.Equal(Marshal(&want).EncodeBinary(), Marshal(want).EncodeBinary()) {
		t.Fatal("Marshal(&v) differs from Marshal(v)")
	}
}

func TestMarshalLayout(t *testing.T) {
	f := fullFixture()
	f.Local = "stays home"
	n := Marshal(f)
	if v, _ := n.StringVal("items/000001/name"); v != "b" {
		t.Errorf("items/000001/name = %q", v)
	}
	if v, _ := n.Child("by_name").Child("x/y").Float("score"); v != 3 {
		t.Errorf("a map key is one child name, slashes and all: score = %v", v)
	}
	if v, _ := n.Int("id"); uint64(v) != f.ID {
		t.Errorf("id = %d, want the uint64 bit-cast", v)
	}
	if v, _ := n.Int("at_ns"); v != f.At.UnixNano() {
		t.Errorf("at_ns = %d", v)
	}
	if _, ok := n.FloatArray("floats"); !ok {
		t.Error("[]float64 is not a float array leaf")
	}
	if v, _ := n.StringVal("blob"); v != string(f.Blob) {
		t.Errorf("blob = %q", v)
	}
	if !n.Has("On") || n.Has("Local") || n.Has("hidden") {
		t.Errorf("children = %v", n.ChildNames())
	}
	// Absent: a nil pointer, empty slices and maps; the zero Time is 0.
	zero := Marshal(codecFixture{})
	for _, name := range []string{"next", "floats", "ints", "blob", "items", "by_name"} {
		if zero.Has(name) {
			t.Errorf("zero value carries %q", name)
		}
	}
	if v, ok := zero.Int("at_ns"); !ok || v != 0 {
		t.Errorf("zero Time = %d, %v", v, ok)
	}
}

// TestMarshalIsCanonical: a map's keys are written sorted, so one value
// encodes to one frame however the map iterates.
func TestMarshalIsCanonical(t *testing.T) {
	m := map[string]int64{}
	for i := 0; i < 64; i++ {
		m[string(AppendIndexKey([]byte("k"), i*7919%1000))] = int64(i)
	}
	first := Marshal(m).EncodeBinary()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(Marshal(m).EncodeBinary(), first) {
			t.Fatal("two encodes of one map differ")
		}
	}
	if names := Marshal(m).ChildNames(); !slices.IsSorted(names) {
		t.Fatalf("map keys not written in order: %v", names)
	}
}

func TestUnmarshalKindMismatchNamesPath(t *testing.T) {
	for _, c := range []struct {
		path, want string
		set        func(n *Node)
	}{
		{"items/000001/score", "string node into float64", func(n *Node) { n.SetString("items/000001/score", "high") }},
		{"by_name/new/name", "bool node into string", func(n *Node) { n.Child("by_name").Fetch("new").SetBool("name", true) }},
		{"small", "300 overflows int8", func(n *Node) { n.SetInt("small", 300) }},
		{"next", "int64 node into", func(n *Node) { n.SetInt("next", 1) }},
		{"items", "float64_array node into", func(n *Node) { n.SetFloatArray("items", []float64{1}) }},
	} {
		n := Marshal(fullFixture())
		c.set(n)
		var got codecFixture
		err := Unmarshal(reencode(t, n), &got)
		if err == nil || !strings.Contains(err.Error(), "unmarshal "+c.path+": ") {
			t.Errorf("%s: err = %v, want it to name the path", c.path, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.path, err, c.want)
		}
	}
	if err := Unmarshal(&Node{kind: KindString, s: "x"}, &codecFixture{}); err == nil || !strings.Contains(err.Error(), "unmarshal (root): string node into") {
		t.Errorf("root mismatch: %v", err)
	}
}

func TestUnmarshalMissingAndUnknownChildren(t *testing.T) {
	n := NewNode()
	n.SetInt("count", 9)
	n.SetInt("not_a_field", 1)
	n.Fetch("label") // present but empty: absent
	got := codecFixture{Label: "kept", Small: 3, Local: "kept"}
	if err := Unmarshal(n, &got); err != nil {
		t.Fatal(err)
	}
	if got.Count != 9 || got.Label != "kept" || got.Small != 3 || got.Local != "kept" {
		t.Fatalf("got %+v", got)
	}
	if err := Unmarshal(n, got); err == nil {
		t.Fatal("Unmarshal into a non-pointer succeeded")
	}
}
