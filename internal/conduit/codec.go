package conduit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Binary wire format (little endian throughout):
//
//	node    := kind(u8) payload
//	object  := count(uvarint) { name(str) node }*
//	int     := zigzag varint
//	float   := u64 (IEEE 754 bits)
//	string  := str
//	bool    := u8
//	i-array := count(uvarint) { zigzag varint }*
//	f-array := count(uvarint) { u64 }*
//	str     := len(uvarint) bytes
//
// The format is self-describing and versioned by a 4-byte magic header so a
// SOMA service can reject frames from incompatible clients.

var binMagic = [4]byte{'C', 'D', 'T', 1}

// Common codec errors.
var (
	ErrBadMagic  = errors.New("conduit: bad magic header")
	ErrTruncated = errors.New("conduit: truncated input")
)

// maxDecodeItems bounds per-node child and array counts so a corrupt or
// hostile frame cannot force a huge allocation before the data is read.
const maxDecodeItems = 1 << 24

// EncodeBinary serializes the subtree to the compact binary wire format used
// for RPC transport between SOMA clients and service instances.
func (n *Node) EncodeBinary() []byte {
	buf := make([]byte, 0, 64+n.NumLeaves()*16)
	return n.AppendBinary(buf)
}

// AppendBinary appends the node's complete wire frame (magic header
// included) to dst and returns the extended slice. It is the allocation-free
// flavour of EncodeBinary for callers that manage their own buffers, e.g.
// via GetEncodeBuffer.
func (n *Node) AppendBinary(dst []byte) []byte {
	dst = append(dst, binMagic[:]...)
	return n.encodeBinary(dst)
}

// EncodeBinaryStable serializes the subtree like EncodeBinary but builds the
// frame in a pooled scratch buffer and returns an exact-size owned copy.
// EncodeBinary pre-sizes its allocation with an O(leaves) NumLeaves walk and
// typically over- or under-shoots; this flavour walks the tree once and the
// returned slice wastes no capacity — the shape wanted for frames that are
// retained (a publish's pending record, a snapshot's "unchanged" answer),
// where slack capacity would be pinned for as long as the frame lives.
func (n *Node) EncodeBinaryStable() []byte {
	bp := GetEncodeBuffer()
	*bp = n.AppendBinary(*bp)
	out := make([]byte, len(*bp))
	copy(out, *bp)
	PutEncodeBuffer(bp)
	return out
}

// encBufPool recycles encode buffers across publishes; the hot publish path
// would otherwise allocate one wire buffer per call.
var encBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 1024)
	return &b
}}

// maxPooledBuf bounds what goes back into the pool so one huge frame does
// not pin memory forever.
const maxPooledBuf = 1 << 16

// GetEncodeBuffer returns a pooled zero-length buffer for AppendBinary.
// Return it with PutEncodeBuffer once the encoded bytes are no longer
// referenced (after the RPC call completes).
func GetEncodeBuffer() *[]byte {
	bp := encBufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutEncodeBuffer recycles a buffer obtained from GetEncodeBuffer. The
// caller must not use the buffer afterwards.
func PutEncodeBuffer(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		encBufPool.Put(bp)
	}
}

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:k]...)
}

func appendVarint(buf []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutVarint(tmp[:], v)
	return append(buf, tmp[:k]...)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	return append(buf, tmp[:]...)
}

func (n *Node) encodeBinary(buf []byte) []byte {
	buf = append(buf, byte(n.kind))
	switch n.kind {
	case KindEmpty:
	case KindObject:
		names := n.names()
		buf = appendUvarint(buf, uint64(len(names)))
		for i, name := range names {
			buf = appendString(buf, name)
			buf = n.at(i).encodeBinary(buf)
		}
	case KindInt:
		buf = appendVarint(buf, int64(n.num))
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, n.num)
	case KindString:
		buf = appendString(buf, n.s)
	case KindBool:
		buf = append(buf, byte(n.num))
	case KindIntArray:
		buf = appendUvarint(buf, uint64(len(n.ext.ia)))
		for _, v := range n.ext.ia {
			buf = appendVarint(buf, v)
		}
	case KindFloatArray:
		buf = appendUvarint(buf, uint64(len(n.ext.fa)))
		for _, v := range n.ext.fa {
			buf = appendFloat(buf, v)
		}
	}
	return buf
}

type binReader struct {
	data []byte
	pos  int
	// strArena, when non-empty, is one string copy of data: str() then
	// returns substrings instead of allocating per name/value. Every tree
	// decode enables it — the one copy replaces an allocation per name — at
	// the price that a name or string value kept from a decoded tree keeps
	// that frame's copy alive.
	strArena string
	// The arenas are bump allocators for what a decoded tree is made of:
	// one chunk serves many nodes, cutting decode allocations by the chunk
	// size. Everything carved escapes into the tree, so chunks are never
	// reused — only the per-node allocation is amortized. Name and child
	// slices are carved capped at their exact count, so a later append on a
	// decoded node reallocates instead of clobbering a neighbour's carve.
	nodes []Node
	exts  []nodeExt
	names []string
	vals  []*Node
	// emptyObjs counts the zero-child objects validateNode has stepped over;
	// MergeNodes reads it to tell whether a subtree may be copied verbatim.
	emptyObjs int
	// claimed is the least number of wire bytes the counts read so far stand
	// for (see count).
	claimed int
}

// arenaChunk is the arena chunk size in elements; frames smaller than that
// are bounded by the bytes that remain (every node costs at least 2).
const arenaChunk = 64

// carve returns n fresh elements, capped at n, from one of r's arenas.
func carve[T any](r *binReader, arena *[]T, n int) []T {
	if len(*arena) < n {
		*arena = make([]T, max(n, min(arenaChunk, (len(r.data)-r.pos)/2+1)))
	}
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// count reads an element count and bounds it by what the rest of the frame
// can hold at minBytes per element, so that no reader sizes anything — and
// no two readers disagree — on a number the frame cannot back. Nested counts
// could each pass that test and still multiply (every level of a deep frame
// claiming half of what remains), so the claims are also summed: elements
// occupy distinct bytes, and an honest frame never claims more than it is
// long.
func (r *binReader) count(minBytes int) (int, error) {
	c, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if c > maxDecodeItems {
		return 0, fmt.Errorf("conduit: item count %d too large", c)
	}
	if c > uint64(len(r.data)-r.pos)/uint64(minBytes) {
		return 0, ErrTruncated
	}
	if r.claimed += int(c) * minBytes; r.claimed > len(r.data) {
		return 0, ErrTruncated
	}
	return int(c), nil
}

// Least wire bytes per element: a child is a name length and a kind tag, an
// array int a one-byte varint, an array float its eight bytes.
const (
	minChildBytes = 2
	minIntBytes   = 1
	floatBytes    = 8
)

func (r *binReader) u8() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, ErrTruncated
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, k := binary.Uvarint(r.data[r.pos:])
	if k <= 0 {
		return 0, ErrTruncated
	}
	r.pos += k
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, k := binary.Varint(r.data[r.pos:])
	if k <= 0 {
		return 0, ErrTruncated
	}
	r.pos += k
	return v, nil
}

func (r *binReader) str() (string, error) {
	ln, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.data)-r.pos) < ln {
		return "", ErrTruncated
	}
	var s string
	if r.strArena != "" {
		s = r.strArena[r.pos : r.pos+int(ln)]
	} else {
		s = string(r.data[r.pos : r.pos+int(ln)])
	}
	r.pos += int(ln)
	return s, nil
}

func (r *binReader) f64() (float64, error) {
	if len(r.data)-r.pos < 8 {
		return 0, ErrTruncated
	}
	bits := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return math.Float64frombits(bits), nil
}

// hasTreeMagic reports whether data starts with the tree-frame magic.
func hasTreeMagic(data []byte) bool {
	return len(data) >= 4 && data[0] == binMagic[0] && data[1] == binMagic[1] &&
		data[2] == binMagic[2] && data[3] == binMagic[3]
}

// DecodeBinary parses a frame produced by EncodeBinary. The tree's names and
// string values are substrings of one copy of the frame (see binReader).
func DecodeBinary(data []byte) (*Node, error) {
	if !hasTreeMagic(data) {
		return nil, ErrBadMagic
	}
	r := binReader{data: data, pos: 4, strArena: string(data)}
	n, err := r.decodeTree()
	if err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("conduit: %d trailing bytes", len(data)-r.pos)
	}
	return n, nil
}

// maxDepth bounds recursion so a malicious frame cannot blow the stack.
const maxDepth = 512

func (r *binReader) decodeTree() (*Node, error) {
	n := &carve(r, &r.nodes, 1)[0]
	return n, decodeNode(r, n, 0)
}

// decodeNode fills the zeroed node n from the wire.
func decodeNode(r *binReader, n *Node, depth int) error {
	if depth > maxDepth {
		return errors.New("conduit: tree too deep")
	}
	kb, err := r.u8()
	if err != nil {
		return err
	}
	n.kind = Kind(kb)
	switch n.kind {
	case KindEmpty:
	case KindObject:
		count, err := r.count(minChildBytes)
		if err != nil || count == 0 {
			return err
		}
		e := &carve(r, &r.exts, 1)[0]
		e.names = carve(r, &r.names, count)[:0]
		e.vals = carve(r, &r.vals, count)[:0]
		if count > smallObject {
			e.index = make(map[string]int, count)
		}
		n.ext = e
		// Repeated names have to be found, and in an object of up to
		// smallObject children finding out costs a scan per child. While the
		// names so far form a strictly ascending run (timestamps and
		// zero-padded ids appended in order do; "State" after "Uptime" does
		// not) a name above its predecessor is above all of them, hence
		// new, and the scan is skipped. Measured both ways on the same 20 000
		// leaves: with every name looked up BenchmarkDecodeWide (ascending)
		// takes 1.3–1.45× as long, which is what BenchmarkDecodeWideShuffled
		// (no ascending run) costs beside it — 1.85 against 2.6 ms, where
		// the map-per-object decoder this replaced took 4.0 ms on either.
		ascending := true
		for i := 0; i < count; i++ {
			name, err := r.str()
			if err != nil {
				return err
			}
			c := &carve(r, &r.nodes, 1)[0]
			if err := decodeNode(r, c, depth+1); err != nil {
				return err
			}
			if last := len(e.names) - 1; last >= 0 && !(ascending && name > e.names[last]) {
				ascending = false
				// A duplicate name in one encoded object merges into the
				// earlier child (leaves still overwrite), matching the
				// wire-merge path — a hostile frame must mean the same thing
				// on every ingest path.
				if prev := lookup(n, name); prev != nil {
					prev.Merge(c)
					continue
				}
			}
			e.add(name, c)
		}
	case KindInt:
		v, err := r.varint()
		n.num = uint64(v)
		return err
	case KindFloat:
		v, err := r.f64()
		n.num = math.Float64bits(v)
		return err
	case KindString:
		n.s, err = r.str()
		return err
	case KindBool:
		b, err := r.u8()
		n.num = boolBits(b != 0)
		return err
	case KindIntArray:
		ia, err := r.intArray()
		n.ext = &nodeExt{ia: ia}
		return err
	case KindFloatArray:
		fa, err := r.floatArray()
		n.ext = &nodeExt{fa: fa}
		return err
	default:
		return fmt.Errorf("conduit: unknown kind %d", kb)
	}
	return nil
}

func (r *binReader) intArray() ([]int64, error) {
	count, err := r.count(minIntBytes)
	if err != nil {
		return nil, err
	}
	ia := make([]int64, count)
	for i := range ia {
		if ia[i], err = r.varint(); err != nil {
			return nil, err
		}
	}
	return ia, nil
}

func (r *binReader) floatArray() ([]float64, error) {
	count, err := r.count(floatBytes)
	if err != nil {
		return nil, err
	}
	fa := make([]float64, count)
	for i := range fa {
		fa[i], _ = r.f64() // count was bounded by the bytes that remain
	}
	return fa, nil
}

// ---------------------------------------------------------------------------
// Batch frames: many (namespace, tree) publishes in one wire frame.
//
//	batch := 'C' 'D' 'B' 1 { entry }*
//	entry := nsLen(uvarint) ns-bytes treeLen(u32 LE) tree-frame
//
// where tree-frame is a complete standard frame (its own 'CDT1' magic plus
// one node). The entry count is implicit — decode runs to the end of the
// frame, so a zero-entry batch is just the 4-byte magic. The explicit
// treeLen lets the decoder verify each entry consumed exactly its declared
// bytes, so a corrupt tree cannot silently bleed into the next entry.

var batchMagic = [4]byte{'C', 'D', 'B', 1}

// BatchEntry is one decoded (namespace, tree) element of a batch frame.
// Consecutive entries with equal namespaces share one NS string.
type BatchEntry struct {
	NS   string
	Tree *Node
}

// AppendBatchHeader starts a batch frame: it appends the batch magic to dst.
func AppendBatchHeader(dst []byte) []byte {
	return append(dst, batchMagic[:]...)
}

// isBatchFrame reports whether data starts with the batch magic.
func isBatchFrame(data []byte) bool {
	return len(data) >= 4 && data[0] == batchMagic[0] && data[1] == batchMagic[1] &&
		data[2] == batchMagic[2] && data[3] == batchMagic[3]
}

// AppendBatchEntryEncoded appends one (namespace, tree) entry whose tree is
// already encoded (EncodeBinary output). The bytes are copied verbatim, so a
// publisher with a fixed tree shape can encode once and append the cached
// frame on every publish. The caller is responsible for enc being a valid
// tree frame (see ValidateBinary); the server re-validates on ingest.
func AppendBatchEntryEncoded(dst []byte, ns string, enc []byte) []byte {
	dst = appendString(dst, ns)
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(enc)))
	dst = append(dst, l[:]...)
	return append(dst, enc...)
}

// DecodeBatch parses a batch frame into its entries in wire order. All
// entries decode through one shared node arena, and a run of entries with
// the same namespace reuses a single NS string, so decoding a batch of N
// same-namespace publishes costs far less than N DecodeBinary calls.
func DecodeBatch(data []byte) ([]BatchEntry, error) {
	if !isBatchFrame(data) {
		return nil, ErrBadMagic
	}
	// One string copy of the frame serves every decoded name and value as a
	// substring — the dominant decode allocation at batch entry counts.
	r := binReader{data: data, pos: 4, strArena: string(data)}
	var entries []BatchEntry
	var lastNSBytes []byte
	var lastNS string
	for r.pos < len(data) {
		nsLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(data)-r.pos) < nsLen {
			return nil, ErrTruncated
		}
		nsBytes := data[r.pos : r.pos+int(nsLen)]
		r.pos += int(nsLen)
		if lastNSBytes == nil || !bytes.Equal(nsBytes, lastNSBytes) {
			lastNS = string(nsBytes)
			lastNSBytes = nsBytes
		}
		if len(data)-r.pos < 4 {
			return nil, ErrTruncated
		}
		treeLen := int(binary.LittleEndian.Uint32(data[r.pos:]))
		r.pos += 4
		if len(data)-r.pos < treeLen {
			return nil, ErrTruncated
		}
		end := r.pos + treeLen
		if treeLen < 4 || !bytes.Equal(data[r.pos:r.pos+4], binMagic[:]) {
			return nil, ErrBadMagic
		}
		r.pos += 4
		n, err := r.decodeTree()
		if err != nil {
			return nil, err
		}
		if r.pos != end {
			return nil, fmt.Errorf("conduit: batch entry length mismatch: %d bytes unconsumed", end-r.pos)
		}
		entries = append(entries, BatchEntry{NS: lastNS, Tree: n})
	}
	return entries, nil
}

// ForEachBatchEntry walks a batch frame's entry framing without decoding
// any tree: fn receives each entry's namespace bytes and its complete tree
// frame (magic included) as subslices of data, in wire order. Entry framing
// (lengths, tree magic) is verified; tree *structure* is not — pair with
// ValidateBinary when the bytes will be retained and decoded later. This is
// the allocation-free half of the server's raw batch ingest.
func ForEachBatchEntry(data []byte, fn func(ns, enc []byte) error) error {
	if !isBatchFrame(data) {
		return ErrBadMagic
	}
	pos := 4
	for pos < len(data) {
		nsLen, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return ErrTruncated
		}
		pos += k
		if uint64(len(data)-pos) < nsLen {
			return ErrTruncated
		}
		ns := data[pos : pos+int(nsLen)]
		pos += int(nsLen)
		if len(data)-pos < 4 {
			return ErrTruncated
		}
		treeLen := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if len(data)-pos < treeLen {
			return ErrTruncated
		}
		if treeLen < 4 || !bytes.Equal(data[pos:pos+4], binMagic[:]) {
			return ErrBadMagic
		}
		if err := fn(ns, data[pos:pos+treeLen]); err != nil {
			return err
		}
		pos += treeLen
	}
	return nil
}

// ValidateBinary structurally verifies a standard tree frame — every kind
// tag, count, and length lands inside the frame and nothing trails — without
// building a single node. A frame that validates is guaranteed to decode
// (and MergeBinaryIntoCached) without error, which is what lets the service
// defer tree materialization on ingest and still reject hostile input at the
// door.
func ValidateBinary(data []byte) error {
	if !hasTreeMagic(data) {
		return ErrBadMagic
	}
	r := binReader{data: data, pos: 4}
	if err := validateNode(&r, 0); err != nil {
		return err
	}
	if r.pos != len(data) {
		return fmt.Errorf("conduit: %d trailing bytes", len(data)-r.pos)
	}
	return nil
}

// strSkip advances past a length-prefixed string without materializing it.
func (r *binReader) strSkip() error {
	ln, err := r.uvarint()
	if err != nil {
		return err
	}
	if uint64(len(r.data)-r.pos) < ln {
		return ErrTruncated
	}
	r.pos += int(ln)
	return nil
}

// validateNode is decodeNode's walk with construction stripped out.
func validateNode(r *binReader, depth int) error {
	if depth > maxDepth {
		return errors.New("conduit: tree too deep")
	}
	kb, err := r.u8()
	if err != nil {
		return err
	}
	switch Kind(kb) {
	case KindEmpty:
	case KindObject:
		count, err := r.count(minChildBytes)
		if err != nil {
			return err
		}
		if count == 0 {
			r.emptyObjs++
		}
		for i := 0; i < count; i++ {
			if err := r.strSkip(); err != nil {
				return err
			}
			if err := validateNode(r, depth+1); err != nil {
				return err
			}
		}
	case KindInt:
		_, err = r.varint()
	case KindFloat:
		_, err = r.f64()
	case KindString:
		err = r.strSkip()
	case KindBool:
		_, err = r.u8()
	case KindIntArray:
		count, err := r.count(minIntBytes)
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			if _, err := r.varint(); err != nil {
				return err
			}
		}
	case KindFloatArray:
		count, err := r.count(floatBytes)
		if err != nil {
			return err
		}
		r.pos += count * floatBytes
	default:
		return fmt.Errorf("conduit: unknown kind %d", kb)
	}
	return err
}

// mergeCacheDepth bounds how many tree levels the resolution memo covers;
// deeper levels fall back to the map lookup.
const mergeCacheDepth = 8

// MergeCache carries child-resolution memory across consecutive
// MergeBinaryIntoCached calls folding many frames into one accumulator.
// Monitors publish sensor by sensor, so successive frames usually share
// their ancestor path; the memo turns each shared level's map lookup into
// a pointer-and-name compare. Per depth it remembers the last (parent,
// child name) resolution; entries are invalidated when a cached subtree is
// overwritten by a leaf (object→scalar reshape), and callers must Reset
// the cache whenever they mutate the accumulator outside
// MergeBinaryIntoCached. The accumulator must be a plain owned tree (built
// by NewNode/Merge/MergeBinaryIntoCached), never a copy-on-write overlay.
type MergeCache struct {
	parent [mergeCacheDepth]*Node
	name   [mergeCacheDepth]string
	child  [mergeCacheDepth]*Node
}

// Reset forgets every memoized resolution; required after any mutation of
// the accumulator that did not go through MergeBinaryIntoCached.
func (mc *MergeCache) Reset() { *mc = MergeCache{} }

// invalidateFrom drops memoized resolutions at depth d and deeper — called
// when the node at depth d is demoted from object to leaf, orphaning the
// subtree those entries point into.
func (mc *MergeCache) invalidateFrom(d int) {
	if d < 0 {
		d = 0
	}
	for i := d; i < mergeCacheDepth; i++ {
		mc.parent[i] = nil
		mc.name[i] = ""
		mc.child[i] = nil
	}
}

// MergeBinaryIntoCached merges an encoded tree frame into dst, producing
// exactly the state dst.Merge(decodedTree) would, without materializing the
// source tree: leaves are written straight from the wire walk, and the only
// allocations are for paths dst has never seen (plus owned copies of string
// and array values). dst must be a private, fully caller-owned tree — the
// service's snapshot-rebuild fold accumulator, never a shared snapshot.
// Callers should ValidateBinary the frame first: on a malformed frame the
// merge errors out part-way with already-walked paths applied. mc is a
// resolution memo shared across calls (see MergeCache); it may be nil.
func MergeBinaryIntoCached(dst *Node, data []byte, mc *MergeCache) error {
	if !hasTreeMagic(data) {
		return ErrBadMagic
	}
	r := binReader{data: data, pos: 4}
	if err := mergeNode(&r, dst, 0, mc); err != nil {
		return err
	}
	if r.pos != len(data) {
		return fmt.Errorf("conduit: %d trailing bytes", len(data)-r.pos)
	}
	return nil
}

// mergeNode replays one encoded node onto dst with Merge's semantics:
// objects recurse child-by-child (creating children on first sight, exactly
// like ensureChild), scalars overwrite whatever dst held, and an empty
// source leaves dst untouched. When a leaf overwrites an object, memoized
// resolutions into the orphaned subtree (this depth and deeper) are
// dropped.
func mergeNode(r *binReader, dst *Node, depth int, mc *MergeCache) error {
	if depth > maxDepth {
		return errors.New("conduit: tree too deep")
	}
	kb, err := r.u8()
	if err != nil {
		return err
	}
	k := Kind(kb)
	if k != KindObject && k != KindEmpty && mc != nil && dst.kind == KindObject {
		mc.invalidateFrom(depth)
	}
	switch k {
	case KindEmpty:
	case KindObject:
		count, err := r.count(minChildBytes)
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			nameB, err := r.strBytes()
			if err != nil {
				return err
			}
			// The depth memo first: consecutive single-leaf frames usually
			// share their ancestor path, making this a pointer compare
			// instead of a lookup in a wide fan-out level.
			if mc != nil && depth < mergeCacheDepth &&
				mc.parent[depth] == dst && mc.name[depth] == string(nameB) {
				if err := mergeNode(r, mc.child[depth], depth+1, mc); err != nil {
					return err
				}
				continue
			}
			c := ensureChild(dst, nameB)
			if mc != nil && depth < mergeCacheDepth {
				mc.parent[depth] = dst
				mc.name[depth] = string(nameB) // copy on memo refresh only
				mc.child[depth] = c
			}
			if err := mergeNode(r, c, depth+1, mc); err != nil {
				return err
			}
		}
	case KindInt:
		v, err := r.varint()
		if err != nil {
			return err
		}
		dst.setScalar(k, uint64(v), "")
	case KindFloat:
		v, err := r.f64()
		if err != nil {
			return err
		}
		dst.setScalar(k, math.Float64bits(v), "")
	case KindString:
		v, err := r.str()
		if err != nil {
			return err
		}
		dst.setScalar(k, 0, v)
	case KindBool:
		bv, err := r.u8()
		if err != nil {
			return err
		}
		dst.setScalar(k, boolBits(bv != 0), "")
	case KindIntArray:
		ia, err := r.intArray()
		if err != nil {
			return err
		}
		dst.setArray(k, ia, nil)
	case KindFloatArray:
		fa, err := r.floatArray()
		if err != nil {
			return err
		}
		dst.setArray(k, nil, fa)
	default:
		return fmt.Errorf("conduit: unknown kind %d", kb)
	}
	return nil
}

// UnmarshalJSON parses plain JSON into the node. JSON numbers become floats
// unless they are integral, in which case they become int64 leaves. The
// input must be exactly one JSON document: trailing non-whitespace after
// the first value is an error, not silently ignored — this is a wire
// boundary, and "parses the prefix" is how smuggled payloads hide.
func (n *Node) UnmarshalJSON(data []byte) error {
	var v interface{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("conduit: trailing data after JSON document (next token %v, err %v)", tok, err)
	}
	*n = Node{}
	return n.fromJSONValue(v)
}

// jsonInt reports the value of a JSON number that becomes an int64 leaf: an
// integral literal other than negative zero. Int64 has no -0, so "-0" stays a
// float — which MarshalJSON writes as "-0" again, keeping one canonicalisation
// a fixpoint.
func jsonInt(num json.Number) (int64, bool) {
	i, err := num.Int64()
	return i, err == nil && !(i == 0 && num[0] == '-')
}

func (n *Node) fromJSONValue(v interface{}) error {
	switch x := v.(type) {
	case nil:
		n.kind = KindEmpty
	case map[string]interface{}:
		n.kind = KindObject
		for name, cv := range x {
			if err := ensureChild(n, name).fromJSONValue(cv); err != nil {
				return err
			}
		}
	case json.Number:
		if i, ok := jsonInt(x); ok {
			n.setScalar(KindInt, uint64(i), "")
			return nil
		}
		f, err := x.Float64()
		if err != nil {
			return err
		}
		n.setScalar(KindFloat, math.Float64bits(f), "")
	case string:
		n.setScalar(KindString, 0, x)
	case bool:
		n.setScalar(KindBool, boolBits(x), "")
	case []interface{}:
		// Arrays decode as float arrays unless every element is integral.
		allInt := true
		for _, e := range x {
			num, ok := e.(json.Number)
			if !ok {
				return fmt.Errorf("conduit: unsupported JSON array element %T", e)
			}
			if _, ok := jsonInt(num); !ok {
				allInt = false
			}
		}
		if allInt {
			ia := make([]int64, len(x))
			for i, e := range x {
				ia[i], _ = e.(json.Number).Int64()
			}
			n.setArray(KindIntArray, ia, nil)
		} else {
			fa := make([]float64, len(x))
			for i, e := range x {
				f, err := e.(json.Number).Float64()
				if err != nil {
					return err
				}
				fa[i] = f
			}
			n.setArray(KindFloatArray, nil, fa)
		}
	default:
		return fmt.Errorf("conduit: unsupported JSON value %T", v)
	}
	return nil
}
