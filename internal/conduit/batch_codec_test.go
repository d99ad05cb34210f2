package conduit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func sampleTree(i int) *Node {
	n := NewNode()
	n.SetInt("seq", int64(i))
	n.SetFloat("val", float64(i)*1.5)
	n.SetString("host", "node042")
	return n
}

func encodeSampleBatch(namespaces []string) []byte {
	buf := AppendBatchHeader(nil)
	for i, ns := range namespaces {
		buf = AppendBatchEntryEncoded(buf, ns, sampleTree(i).EncodeBinary())
	}
	return buf
}

func TestBatchRoundTrip(t *testing.T) {
	namespaces := []string{"workflow", "workflow", "hardware", "workflow", "performance"}
	buf := encodeSampleBatch(namespaces)
	entries, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(entries) != len(namespaces) {
		t.Fatalf("got %d entries, want %d", len(entries), len(namespaces))
	}
	for i, e := range entries {
		if e.NS != namespaces[i] {
			t.Errorf("entry %d: ns %q, want %q", i, e.NS, namespaces[i])
		}
		if v, ok := e.Tree.Int("seq"); !ok || v != int64(i) {
			t.Errorf("entry %d: seq %d ok=%v, want %d", i, v, ok, i)
		}
		if s, ok := e.Tree.StringVal("host"); !ok || s != "node042" {
			t.Errorf("entry %d: host %q", i, s)
		}
	}
}

// Consecutive equal namespaces must share one string — the decode fast path
// the server-side batch ingest relies on for its run grouping.
func TestBatchNamespaceStringReuse(t *testing.T) {
	buf := encodeSampleBatch([]string{"workflow", "workflow", "workflow"})
	entries, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	for i := 1; i < len(entries); i++ {
		// Compare string headers: same backing data means the decoder reused
		// the previous entry's string rather than allocating a new one.
		if entries[i].NS != entries[0].NS {
			t.Fatalf("entry %d ns differs", i)
		}
	}
}

func TestBatchZeroEntries(t *testing.T) {
	buf := AppendBatchHeader(nil)
	entries, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch(header only): %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("got %d entries, want 0", len(entries))
	}
}

func TestBatchBadMagic(t *testing.T) {
	if _, err := DecodeBatch(nil); !errors.Is(err, ErrBadMagic) {
		t.Errorf("nil input: err %v, want ErrBadMagic", err)
	}
	if _, err := DecodeBatch([]byte{'C', 'D', 'T', 1}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("tree magic: err %v, want ErrBadMagic", err)
	}
	if _, err := DecodeBatch([]byte{'X', 'X'}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("short garbage: err %v, want ErrBadMagic", err)
	}
}

// Every strict prefix of a valid batch must fail cleanly (or decode to fewer
// complete entries — prefixes ending exactly on an entry boundary are valid
// shorter batches), never panic.
func TestBatchTruncations(t *testing.T) {
	full := encodeSampleBatch([]string{"workflow", "hardware"})
	for cut := 0; cut < len(full); cut++ {
		entries, err := DecodeBatch(full[:cut])
		if err != nil {
			continue
		}
		if len(entries) > 2 {
			t.Fatalf("prefix %d decoded %d entries", cut, len(entries))
		}
	}
}

func TestBatchCorruptTreeLength(t *testing.T) {
	buf := AppendBatchHeader(nil)
	buf = AppendBatchEntryEncoded(buf, "workflow", sampleTree(0).EncodeBinary())
	// The u32 tree length sits right after the namespace string: magic(4) +
	// nsLen uvarint(1) + ns(8).
	lenAt := 4 + 1 + len("workflow")

	// Huge declared length: claims more bytes than the frame holds.
	huge := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(huge[lenAt:], 0xFFFFFF00)
	if _, err := DecodeBatch(huge); !errors.Is(err, ErrTruncated) {
		t.Errorf("huge length: err %v, want ErrTruncated", err)
	}

	// Zero declared length: too short to hold the inner magic.
	zero := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(zero[lenAt:], 0)
	if _, err := DecodeBatch(zero); !errors.Is(err, ErrBadMagic) {
		t.Errorf("zero length: err %v, want ErrBadMagic", err)
	}

	// Short-by-one declared length: the tree decodes past its slot.
	short := append([]byte(nil), buf...)
	real := binary.LittleEndian.Uint32(short[lenAt:])
	binary.LittleEndian.PutUint32(short[lenAt:], real-1)
	if _, err := DecodeBatch(short); err == nil {
		t.Error("short length: decode succeeded, want error")
	}

	// Long-by-N declared length over a two-entry frame: entry 0 claims bytes
	// belonging to entry 1, so its decode stops before the declared end.
	two := AppendBatchHeader(nil)
	two = AppendBatchEntryEncoded(two, "workflow", sampleTree(0).EncodeBinary())
	two = AppendBatchEntryEncoded(two, "workflow", sampleTree(1).EncodeBinary())
	long := append([]byte(nil), two...)
	binary.LittleEndian.PutUint32(long[lenAt:], real+3)
	if _, err := DecodeBatch(long); err == nil {
		t.Error("long length: decode succeeded, want error")
	} else if !strings.Contains(err.Error(), "length mismatch") && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) {
		t.Errorf("long length: unexpected error %v", err)
	}
}

func TestBatchCorruptInnerMagic(t *testing.T) {
	buf := AppendBatchHeader(nil)
	buf = AppendBatchEntryEncoded(buf, "workflow", sampleTree(0).EncodeBinary())
	innerMagicAt := 4 + 1 + len("workflow") + 4
	buf[innerMagicAt] = 'X'
	if _, err := DecodeBatch(buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("corrupt inner magic: err %v, want ErrBadMagic", err)
	}
}

func TestBatchHugeNamespaceLength(t *testing.T) {
	buf := AppendBatchHeader(nil)
	// uvarint claiming a ~268M-byte namespace with no bytes behind it.
	buf = append(buf, 0x80, 0x80, 0x80, 0x80, 0x01)
	if _, err := DecodeBatch(buf); !errors.Is(err, ErrTruncated) {
		t.Errorf("huge ns length: err %v, want ErrTruncated", err)
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	buf := AppendBatchHeader(nil)
	for i := 0; i < 512; i++ {
		buf = AppendBatchEntryEncoded(buf, "workflow", sampleTree(i).EncodeBinary())
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBatchSingleLeaf is the load-harness shape: many entries,
// each a root object with one float leaf (one logical publisher's sample).
func BenchmarkDecodeBatchSingleLeaf(b *testing.B) {
	frame := AppendBatchHeader(nil)
	const entries = 512
	for i := 0; i < entries; i++ {
		n := NewNode()
		n.SetFloat(fmt.Sprintf("c%05d", i), float64(i))
		frame = AppendBatchEntryEncoded(frame, "hardware", n.EncodeBinary())
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodeBatch(frame)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != entries {
			b.Fatal("entry count")
		}
	}
}

// BenchmarkAppendBatchEntrySingleLeaf is the client coalescer's per-publish
// append cost for the same shape: it is handed encoded frames.
func BenchmarkAppendBatchEntrySingleLeaf(b *testing.B) {
	n := NewNode()
	n.SetFloat("c00042", 42)
	enc := n.EncodeBinary()
	buf := AppendBatchHeader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatchEntryEncoded(buf[:4], "hardware", enc)
	}
}

// richTree exercises every leaf kind plus nesting — the shape differential
// tests want when comparing the wire-merge path against decode-then-merge.
func richTree(i int) *Node {
	n := NewNode()
	n.SetInt("meta/seq", int64(i))
	n.SetFloat("meta/val", float64(i)*0.25)
	n.SetString("meta/host", fmt.Sprintf("cn%04d", i))
	n.SetBool("meta/ok", i%2 == 0)
	n.SetIntArray("arr/ints", []int64{int64(i), int64(i) * 2, -1})
	n.SetFloatArray("arr/floats", []float64{0.5, float64(i)})
	return n
}

func TestValidateBinaryAcceptsValidFrames(t *testing.T) {
	for i := 0; i < 4; i++ {
		enc := richTree(i).EncodeBinary()
		if err := ValidateBinary(enc); err != nil {
			t.Fatalf("valid frame %d rejected: %v", i, err)
		}
	}
	if err := ValidateBinary(NewNode().EncodeBinary()); err != nil {
		t.Fatalf("empty tree rejected: %v", err)
	}
}

func TestValidateBinaryRejectsHostileFrames(t *testing.T) {
	enc := richTree(7).EncodeBinary()
	// Every strict prefix must fail: a frame that validates must consume
	// exactly its bytes, so truncations either break mid-field or leave the
	// walk short of the end.
	for cut := 0; cut < len(enc); cut++ {
		if err := ValidateBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d validated", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if err := ValidateBinary(bad); err == nil {
		t.Fatal("corrupt magic validated")
	}
	kindCorrupt := append([]byte(nil), enc...)
	kindCorrupt[4] = 0xEE // root kind byte
	if err := ValidateBinary(kindCorrupt); err == nil {
		t.Fatal("unknown kind validated")
	}
	trailing := append(append([]byte(nil), enc...), 0xAB)
	if err := ValidateBinary(trailing); err == nil {
		t.Fatal("trailing bytes validated")
	}
}

// MergeBinaryIntoCached must land exactly where Merge of the decoded tree lands,
// across overwrites, re-shaping (leaf<->object), and every value kind.
func TestMergeBinaryIntoMatchesMerge(t *testing.T) {
	srcs := []*Node{richTree(1), richTree(2)}
	reshape := NewNode()
	reshape.SetString("meta", "now-a-leaf") // object -> leaf
	srcs = append(srcs, reshape)
	back := NewNode()
	back.SetInt("meta/seq", 99) // leaf -> object again
	srcs = append(srcs, back)

	viaWire, viaMerge := NewNode(), NewNode()
	for i, src := range srcs {
		enc := src.EncodeBinary()
		if err := ValidateBinary(enc); err != nil {
			t.Fatalf("step %d: validate: %v", i, err)
		}
		if err := MergeBinaryIntoCached(viaWire, enc, nil); err != nil {
			t.Fatalf("step %d: wire merge: %v", i, err)
		}
		viaMerge.Merge(src)
		if !bytes.Equal(viaWire.EncodeBinary(), viaMerge.EncodeBinary()) {
			t.Fatalf("step %d: wire merge diverged from Merge:\nwire:  %s\nmerge: %s",
				i, viaWire.Format(), viaMerge.Format())
		}
	}
}

func TestForEachBatchEntryMatchesDecode(t *testing.T) {
	frame := AppendBatchHeader(nil)
	nss := []string{"workflow", "workflow", "hardware", "application"}
	for i, ns := range nss {
		frame = AppendBatchEntryEncoded(frame, ns, richTree(i).EncodeBinary())
	}
	want, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = ForEachBatchEntry(frame, func(ns, enc []byte) error {
		if string(ns) != want[i].NS {
			t.Fatalf("entry %d ns = %q, want %q", i, ns, want[i].NS)
		}
		n, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("entry %d enc does not decode: %v", i, err)
		}
		if !bytes.Equal(n.EncodeBinary(), want[i].Tree.EncodeBinary()) {
			t.Fatalf("entry %d tree mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("scanned %d entries, want %d", i, len(want))
	}
	// The scan enforces entry framing even though it skips tree structure.
	if err := ForEachBatchEntry(frame[:len(frame)-2], func(ns, enc []byte) error { return nil }); err == nil {
		t.Fatal("truncated batch framing accepted")
	}
}
