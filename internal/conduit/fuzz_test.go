package conduit

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes through the batch decoder. The
// decoder must never panic, and anything it accepts must re-encode to a
// frame that decodes to the same entries (the decode → encode → decode
// fixpoint). Every entry the framing scan yields — validated or not — also
// goes through the wire readers the service's ingest stages run
// (checkWireReaders): no panic, no over-read, and on duplicate-free frames
// the byte-walk rollup state equals the tree-walk state.
func FuzzDecodeBatch(f *testing.F) {
	// Valid frames: empty batch, one entry, a multi-namespace run.
	f.Add(AppendBatchHeader(nil))
	one := AppendBatchEntryEncoded(AppendBatchHeader(nil), "workflow", sampleTree(1).EncodeBinary())
	f.Add(one)
	multi := AppendBatchHeader(nil)
	for i, ns := range []string{"workflow", "workflow", "hardware", "performance"} {
		multi = AppendBatchEntryEncoded(multi, ns, sampleTree(i).EncodeBinary())
	}
	f.Add(multi)
	// Reshape seed: one path flips object→leaf→object across entries, the
	// sequence the cached wire-merge must invalidate its memo through.
	reshape := AppendBatchHeader(nil)
	ra := NewNode()
	ra.SetInt("m/x/y", 1)
	rb := NewNode()
	rb.SetString("m/x", "flat")
	rc := NewNode()
	rc.SetInt("m/x/z", 2)
	for _, n := range []*Node{ra, rb, rc} {
		reshape = AppendBatchEntryEncoded(reshape, "workflow", n.EncodeBinary())
	}
	f.Add(reshape)
	// Rollup-shaped seed: timestamped numeric leaves beside every other kind.
	ro := NewNode()
	ro.SetFloat("PROC/cn01/12.5/CPU Util", 73.5)
	ro.SetInt("PROC/cn01/12.5/Uptime", 49902)
	ro.SetString("PROC/cn01/12.5/State", "ok")
	ro.SetFloatArray("PROC/cn01/prof", []float64{0.5})
	f.Add(AppendBatchEntryEncoded(AppendBatchHeader(nil), "hardware", ro.EncodeBinary()))
	// Hostile seeds: truncations, corrupt length, corrupt magic.
	f.Add(multi[:len(multi)-3])
	f.Add(multi[:7])
	corrupt := append([]byte(nil), one...)
	corrupt[6] = 0xFF
	f.Add(corrupt)
	badMagic := append([]byte(nil), one...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	// A root child named "" has the empty path, like a bare scalar root (found
	// by this target: the tree-walk oracle took the one for the other).
	f.Add([]byte("CDB\x01\b00000000 \x00\x00\x00CDT\x01\x01\x03\x03000\x00\x00\x0300000000\x010\x0300000000"))
	// Counts of 1<<24 with nothing behind them (see
	// TestHostileCountsAllocateNothing).
	// ... and counts that each fit what remains but nest (see
	// TestNestedCountsAllocateOnce).
	for _, hostile := range append(hostileCountFrames(), nestedCountFrame(4<<10)) {
		f.Add(AppendBatchEntryEncoded(AppendBatchHeader(nil), "hardware", hostile))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeBatch(data)
		scanned := 0
		// Cumulative accumulators across the frame's entries: the cached
		// wire-merge must agree with tree Merge even when entries reshape
		// paths the cache has memoized (object→leaf→object flips are the
		// stale-pointer hunting ground).
		accCached, accPlain := NewNode(), NewNode()
		var mc MergeCache
		scanErr := ForEachBatchEntry(data, func(ns, enc []byte) error {
			checkWireReaders(t, enc)
			// Anything the full decoder accepts, the validating scan must
			// accept too — the raw ingest path depends on that agreement.
			if err == nil {
				if scanned >= len(entries) {
					t.Fatalf("scan found more entries than DecodeBatch (%d)", len(entries))
				}
				if string(ns) != entries[scanned].NS {
					t.Fatalf("entry %d ns: scan %q vs decode %q", scanned, ns, entries[scanned].NS)
				}
				if verr := ValidateBinary(enc); verr != nil {
					t.Fatalf("entry %d validated false negative: %v", scanned, verr)
				}
				merged := NewNode()
				if merr := MergeBinaryIntoCached(merged, enc, nil); merr != nil {
					t.Fatalf("entry %d wire-merge failed on validated bytes: %v", scanned, merr)
				}
				want := NewNode()
				want.Merge(entries[scanned].Tree)
				if !bytes.Equal(merged.EncodeBinary(), want.EncodeBinary()) {
					t.Fatalf("entry %d: MergeBinaryIntoCached differs from Merge of decoded tree", scanned)
				}
				if merr := MergeBinaryIntoCached(accCached, enc, &mc); merr != nil {
					t.Fatalf("entry %d cached wire-merge failed on validated bytes: %v", scanned, merr)
				}
				accPlain.Merge(entries[scanned].Tree)
				if !bytes.Equal(accCached.EncodeBinary(), accPlain.EncodeBinary()) {
					t.Fatalf("entry %d: cumulative cached wire-merge diverged from Merge", scanned)
				}
			}
			scanned++
			return nil
		})
		if err != nil {
			return
		}
		if scanErr != nil {
			t.Fatalf("scan rejected a frame DecodeBatch accepted: %v", scanErr)
		}
		if scanned != len(entries) {
			t.Fatalf("scan found %d entries, decode found %d", scanned, len(entries))
		}
		re := AppendBatchHeader(nil)
		for _, e := range entries {
			re = AppendBatchEntryEncoded(re, e.NS, e.Tree.EncodeBinary())
		}
		again, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("re-decode entry count %d, want %d", len(again), len(entries))
		}
		for i := range again {
			if again[i].NS != entries[i].NS {
				t.Fatalf("entry %d ns changed: %q vs %q", i, again[i].NS, entries[i].NS)
			}
			if !bytes.Equal(again[i].Tree.EncodeBinary(), entries[i].Tree.EncodeBinary()) {
				t.Fatalf("entry %d tree changed across re-encode", i)
			}
		}
	})
}

// FuzzSliceFields feeds arbitrary bytes to the envelope slicer and holds it
// to DecodeBinary + Get: both reject the frame, or both find the same fields
// holding the same trees. The one sanctioned difference is a repeated
// requested field, which the slicer rejects and decoding merges.
func FuzzSliceFields(f *testing.F) {
	data := NewNode()
	data.SetFloat("PROC/cn01/12.5/CPU Util", 73.5)
	req := NewNode()
	req.SetString("ns", "hardware")
	req.Attach("data", data)
	whole := req.EncodeBinary()
	f.Add(whole)
	req.SetInt("epoch", 1<<40)
	f.Add(req.EncodeBinary())
	f.Add(data.EncodeBinary())                      // no envelope fields at all
	f.Add(NewNode().EncodeBinary())                 // empty root
	f.Add(whole[:len(whole)-2])                     // truncated
	f.Add(append(whole[:len(whole):len(whole)], 0)) // trailing byte
	dup := append([]byte(nil), binMagic[:]...)
	dup = append(dup, byte(KindObject), 2, 2, 'n', 's', byte(KindString), 1, 'a', 2, 'n', 's', byte(KindString), 1, 'b')
	f.Add(dup)

	names := []string{"ns", "data", "epoch"}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var out [3][]byte
		serr := SliceFields(frame[:len(frame):len(frame)], names, out[:])
		verr := ValidateBinary(frame)
		if verr != nil {
			if serr == nil {
				t.Fatalf("SliceFields accepted a frame ValidateBinary rejects: %v", verr)
			}
			return
		}
		if serr != nil {
			if !strings.Contains(serr.Error(), "duplicate envelope field") {
				t.Fatalf("SliceFields rejected a valid frame: %v", serr)
			}
			return
		}
		checkSliceAgainstDecode(t, frame, names, out[:])
	})
}
