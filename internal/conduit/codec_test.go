package conduit

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleNode() *Node {
	n := NewNode()
	n.SetString("RP/task.000000/1698435412.6060030", "launch_start")
	n.SetString("RP/task.000000/1698435412.9642950", "exec_start")
	n.SetInt("PROC/cn4302/Uptime", 49902)
	n.SetInt("PROC/cn4302/Num Processes", 3)
	n.SetIntArray("PROC/cn4302/stat/cpu", []int64{10749, 865, 685, 9293, 999, 745})
	n.SetFloatArray("TAU/rank0/times", []float64{0.5, 12.25, math.Pi})
	n.SetFloat("neg", -1234.5e-8)
	n.SetBool("flag", true)
	n.Fetch("empty/leaf") // deliberately empty node
	return n
}

func TestBinaryRoundTrip(t *testing.T) {
	n := sampleNode()
	enc := n.EncodeBinary()
	dec, err := DecodeBinary(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !n.Equal(dec) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", n.Format(), dec.Format())
	}
	// Order must survive too.
	if !reflect.DeepEqual(n.Leaves(), dec.Leaves()) {
		t.Fatalf("leaf order changed: %v vs %v", n.Leaves(), dec.Leaves())
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := DecodeBinary([]byte{1, 2, 3, 4, 5}); err != ErrBadMagic {
		t.Fatalf("err = %v want ErrBadMagic", err)
	}
	if _, err := DecodeBinary(nil); err != ErrBadMagic {
		t.Fatalf("nil input err = %v", err)
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	enc := sampleNode().EncodeBinary()
	for _, cut := range []int{5, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeBinary(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryRejectsTrailingGarbage(t *testing.T) {
	enc := append(sampleNode().EncodeBinary(), 0xde, 0xad)
	if _, err := DecodeBinary(enc); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v want trailing-bytes error", err)
	}
}

func TestBinaryRejectsUnknownKind(t *testing.T) {
	frame := append([]byte{}, binMagic[:]...)
	frame = append(frame, 0xEE)
	if _, err := DecodeBinary(frame); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBinaryRejectsHugeCounts(t *testing.T) {
	// Object claiming 2^40 children must be rejected before allocation.
	frame := append([]byte{}, binMagic[:]...)
	frame = append(frame, byte(KindObject))
	frame = appendUvarint(frame, 1<<40)
	if _, err := DecodeBinary(frame); err == nil {
		t.Fatal("huge child count accepted")
	}
	frame = append([]byte{}, binMagic[:]...)
	frame = append(frame, byte(KindIntArray))
	frame = appendUvarint(frame, 1<<40)
	if _, err := DecodeBinary(frame); err == nil {
		t.Fatal("huge array count accepted")
	}
}

func TestBinaryRejectsDeepNesting(t *testing.T) {
	n := NewNode()
	path := strings.Repeat("a/", maxDepth+10) + "leaf"
	n.SetInt(path, 1)
	if _, err := DecodeBinary(n.EncodeBinary()); err == nil {
		t.Fatal("over-deep tree accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n := NewNode()
	n.SetInt("i", 42)
	n.SetFloat("f", 1.5)
	n.SetString("s", "x")
	n.SetBool("b", false)
	n.SetIntArray("ia", []int64{1, 2})
	n.SetFloatArray("fa", []float64{0.5, 2})

	data, err := json.Marshal(n)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Node
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// fa decodes as float array (0.5 not integral); ia stays int.
	if v, ok := back.Int("i"); !ok || v != 42 {
		t.Errorf("i = %v,%v", v, ok)
	}
	if v, ok := back.Float("f"); !ok || v != 1.5 {
		t.Errorf("f = %v,%v", v, ok)
	}
	if v, ok := back.IntArray("ia"); !ok || !reflect.DeepEqual(v, []int64{1, 2}) {
		t.Errorf("ia = %v,%v", v, ok)
	}
	if v, ok := back.FloatArray("fa"); !ok || v[0] != 0.5 {
		t.Errorf("fa = %v,%v", v, ok)
	}
}

func TestJSONNullAndNested(t *testing.T) {
	var n Node
	if err := json.Unmarshal([]byte(`{"a":{"b":null,"c":"x"}}`), &n); err != nil {
		t.Fatal(err)
	}
	c, ok := n.Get("a/b")
	if !ok || !c.IsEmpty() {
		t.Error("null should decode to empty node")
	}
	if v, _ := n.StringVal("a/c"); v != "x" {
		t.Error("nested string lost")
	}
}

func TestJSONRejectsMixedArray(t *testing.T) {
	var n Node
	if err := json.Unmarshal([]byte(`{"a":[1,"two"]}`), &n); err == nil {
		t.Fatal("mixed-type array accepted")
	}
}

// randomNode builds a random tree for property tests.
func randomNode(r *rand.Rand, depth int) *Node {
	n := NewNode()
	if depth > 3 {
		n.SetInt("", r.Int63())
		return n
	}
	kids := r.Intn(4) + 1
	for i := 0; i < kids; i++ {
		name := string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26)))
		switch r.Intn(6) {
		case 0:
			n.SetInt(name, r.Int63()-r.Int63())
		case 1:
			n.SetFloat(name, r.NormFloat64()*1e6)
		case 2:
			n.SetString(name, strings.Repeat("s", r.Intn(20)))
		case 3:
			n.SetBool(name, r.Intn(2) == 0)
		case 4:
			arr := make([]float64, r.Intn(8))
			for j := range arr {
				arr[j] = r.Float64()
			}
			n.SetFloatArray(name, arr)
		case 5:
			sub := randomNode(r, depth+1)
			ensureChild(n, name).Merge(sub)
		}
	}
	return n
}

// Property: binary encode/decode is the identity on arbitrary trees.
func TestQuickBinaryRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNode(r, 0)
		dec, err := DecodeBinary(n.EncodeBinary())
		return err == nil && n.Equal(dec)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge(x, x) == x (idempotence) and Clone is equal but detached.
func TestQuickMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNode(r, 0)
		c := n.Clone()
		n.Merge(c)
		return n.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Diff(a,a) is empty; Diff(a,b) nonempty when one leaf changed.
func TestQuickDiff(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomNode(r, 0)
		if len(a.diff(a)) != 0 {
			return false
		}
		b := a.Clone()
		b.SetString("zz_injected/leaf", "difference")
		return len(a.diff(b)) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-ish robustness: decoding random bytes must never panic.
func TestDecodeRandomBytesNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		buf := make([]byte, r.Intn(200))
		r.Read(buf)
		if r.Intn(2) == 0 && len(buf) >= 4 {
			copy(buf, binMagic[:]) // valid magic, garbage body
		}
		_, _ = DecodeBinary(buf) // must not panic
	}
}

func BenchmarkConduitCodecs(b *testing.B) {
	n := sampleNode()
	b.Run("binary-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = n.EncodeBinary()
		}
	})
	enc := n.EncodeBinary()
	b.Run("binary-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBinary(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	jenc, _ := json.Marshal(n)
	b.Run("json-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back Node
			if err := json.Unmarshal(jenc, &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// loadTree builds the shape the repository benchmark reads back whole:
// LOAD/cn%05d/s%02d float leaves, hosts × perHost of them (1 250 × 16 is the
// 20 000-leaf, 266 KiB frame of `soma.query LOAD`).
func loadTree(hosts, perHost int) *Node {
	n := NewNode()
	for h := 0; h < hosts; h++ {
		for s := 0; s < perHost; s++ {
			n.SetFloat(fmt.Sprintf("LOAD/cn%05d/s%02d", h, s), float64(h)+float64(s)/100)
		}
	}
	return n
}

// shuffledLoadTree is loadTree with hosts, and the metrics of each host,
// inserted in a seeded random order: the same leaves in a frame of the same
// size, no run of ascending names in it.
func shuffledLoadTree(hosts, perHost int) *Node {
	r := rand.New(rand.NewSource(1))
	n := NewNode()
	for _, h := range r.Perm(hosts) {
		for _, s := range r.Perm(perHost) {
			n.SetFloat(fmt.Sprintf("LOAD/cn%05d/s%02d", h, s), float64(h)+float64(s)/100)
		}
	}
	return n
}

// BenchmarkDecodeWide / BenchmarkEncodeWide are the client's and the
// service's half of one whole-namespace read of the 20 000-leaf tree.
// BenchmarkDecodeWideShuffled is the decode when sibling names do not ascend
// and decodeNode has to look every one of them up (see there).
func BenchmarkDecodeWide(b *testing.B)         { benchDecode(b, loadTree(1250, 16)) }
func BenchmarkDecodeWideShuffled(b *testing.B) { benchDecode(b, shuffledLoadTree(1250, 16)) }

func benchDecode(b *testing.B, n *Node) {
	enc := n.EncodeBinary()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeWide(b *testing.B) {
	n := loadTree(1250, 16)
	buf := n.EncodeBinary()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = n.AppendBinary(buf[:0])
	}
}
