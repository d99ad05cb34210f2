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
// retained (snapshot caches), where slack capacity would be pinned for the
// snapshot's lifetime.
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
		buf = appendUvarint(buf, uint64(len(n.order)))
		for _, name := range n.order {
			buf = appendString(buf, name)
			buf = n.lookup(name).encodeBinary(buf)
		}
	case KindInt:
		buf = appendVarint(buf, n.i)
	case KindFloat:
		buf = appendFloat(buf, n.f)
	case KindString:
		buf = appendString(buf, n.s)
	case KindBool:
		if n.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KindIntArray:
		buf = appendUvarint(buf, uint64(len(n.ia)))
		for _, v := range n.ia {
			buf = appendVarint(buf, v)
		}
	case KindFloatArray:
		buf = appendUvarint(buf, uint64(len(n.fa)))
		for _, v := range n.fa {
			buf = appendFloat(buf, v)
		}
	}
	return buf
}

type binReader struct {
	data []byte
	pos  int
	// arena is a bump allocator for decoded nodes: one []Node chunk serves
	// many *Node results, cutting decode allocations by the chunk size. The
	// nodes escape into the decoded tree, so chunks are never reused — only
	// the per-node allocation is amortized.
	arena []Node
	// strArena, when non-empty, is one string copy of data: str() then
	// returns substrings instead of allocating per name/value. Batch decode
	// enables it (hundreds of entries per frame make the single copy pay
	// for itself many times over); the decoded strings keep the arena alive,
	// which is fine for batch trees — their strings share the frame's
	// lifetime anyway, and merged-tree map keys are only retained for paths
	// seen for the first time.
	strArena string
	// ordArena bump-allocates the per-object child-order slices. Each carve
	// is capped at its exact count, so a later append on a decoded node
	// reallocates instead of clobbering a neighbour's carve.
	ordArena []string
	// emptyObjs counts the zero-child objects validateNode has stepped over;
	// MergeNodes reads it to tell whether a subtree may be copied verbatim.
	emptyObjs int
}

// arenaChunk is the node-arena chunk size; frames smaller than that are
// bounded by their encoded size (every node costs at least 2 wire bytes).
const arenaChunk = 64

func (r *binReader) newNode() *Node {
	if len(r.arena) == 0 {
		n := arenaChunk
		if rem := (len(r.data)-r.pos)/2 + 1; rem < n {
			n = rem
		}
		r.arena = make([]Node, n)
	}
	nd := &r.arena[0]
	r.arena = r.arena[1:]
	return nd
}

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

// newOrder carves an exactly-capped child-order slice from the order arena.
func (r *binReader) newOrder(count int) []string {
	if len(r.ordArena) < count {
		n := arenaChunk * 2
		if n < count {
			n = count
		}
		r.ordArena = make([]string, n)
	}
	s := r.ordArena[0:0:count]
	r.ordArena = r.ordArena[count:]
	return s
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

// DecodeBinary parses a frame produced by EncodeBinary.
func DecodeBinary(data []byte) (*Node, error) {
	if !hasTreeMagic(data) {
		return nil, ErrBadMagic
	}
	r := binReader{data: data, pos: 4}
	n, err := decodeNode(&r, 0)
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

func decodeNode(r *binReader, depth int) (*Node, error) {
	if depth > maxDepth {
		return nil, errors.New("conduit: tree too deep")
	}
	kb, err := r.u8()
	if err != nil {
		return nil, err
	}
	n := r.newNode()
	n.kind = Kind(kb)
	switch n.kind {
	case KindEmpty:
	case KindObject:
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if count > maxDecodeItems {
			return nil, fmt.Errorf("conduit: child count %d too large", count)
		}
		if count > 0 {
			n.children = make(map[string]*Node, count)
			n.order = r.newOrder(int(count))
		}
		for i := uint64(0); i < count; i++ {
			name, err := r.str()
			if err != nil {
				return nil, err
			}
			c, err := decodeNode(r, depth+1)
			if err != nil {
				return nil, err
			}
			// A duplicate name in one encoded object merges into the earlier
			// child (leaves still overwrite), matching the wire-merge path —
			// honest encoders never emit duplicates, but a hostile frame
			// must mean the same thing on every ingest path.
			if prev, dup := n.children[name]; dup {
				prev.Merge(c)
			} else {
				n.order = append(n.order, name)
				n.children[name] = c
			}
		}
	case KindInt:
		if n.i, err = r.varint(); err != nil {
			return nil, err
		}
	case KindFloat:
		if n.f, err = r.f64(); err != nil {
			return nil, err
		}
	case KindString:
		if n.s, err = r.str(); err != nil {
			return nil, err
		}
	case KindBool:
		b, err := r.u8()
		if err != nil {
			return nil, err
		}
		n.b = b != 0
	case KindIntArray:
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if count > maxDecodeItems {
			return nil, fmt.Errorf("conduit: array count %d too large", count)
		}
		n.ia = make([]int64, count)
		for i := range n.ia {
			if n.ia[i], err = r.varint(); err != nil {
				return nil, err
			}
		}
	case KindFloatArray:
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if count > maxDecodeItems {
			return nil, fmt.Errorf("conduit: array count %d too large", count)
		}
		n.fa = make([]float64, count)
		for i := range n.fa {
			if n.fa[i], err = r.f64(); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("conduit: unknown kind %d", kb)
	}
	return n, nil
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

// IsBatchFrame reports whether data starts with the batch magic.
func IsBatchFrame(data []byte) bool {
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
	if !IsBatchFrame(data) {
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
		n, err := decodeNode(&r, 0)
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
	if !IsBatchFrame(data) {
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
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > maxDecodeItems {
			return fmt.Errorf("conduit: child count %d too large", count)
		}
		if count == 0 {
			r.emptyObjs++
		}
		for i := uint64(0); i < count; i++ {
			if err := r.strSkip(); err != nil {
				return err
			}
			if err := validateNode(r, depth+1); err != nil {
				return err
			}
		}
	case KindInt:
		if _, err := r.varint(); err != nil {
			return err
		}
	case KindFloat:
		if len(r.data)-r.pos < 8 {
			return ErrTruncated
		}
		r.pos += 8
	case KindString:
		if err := r.strSkip(); err != nil {
			return err
		}
	case KindBool:
		if _, err := r.u8(); err != nil {
			return err
		}
	case KindIntArray:
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > maxDecodeItems {
			return fmt.Errorf("conduit: array count %d too large", count)
		}
		for i := uint64(0); i < count; i++ {
			if _, err := r.varint(); err != nil {
				return err
			}
		}
	case KindFloatArray:
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > maxDecodeItems {
			return fmt.Errorf("conduit: array count %d too large", count)
		}
		if uint64(len(r.data)-r.pos) < count*8 {
			return ErrTruncated
		}
		r.pos += int(count) * 8
	default:
		return fmt.Errorf("conduit: unknown kind %d", kb)
	}
	return nil
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
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > maxDecodeItems {
			return fmt.Errorf("conduit: child count %d too large", count)
		}
		for i := uint64(0); i < count; i++ {
			ln, err := r.uvarint()
			if err != nil {
				return err
			}
			if uint64(len(r.data)-r.pos) < ln {
				return ErrTruncated
			}
			nameB := r.data[r.pos : r.pos+int(ln)]
			r.pos += int(ln)
			// The depth memo first: consecutive single-leaf frames usually
			// share their ancestor path, making this a pointer compare
			// instead of a map probe into a wide fan-out level.
			if mc != nil && depth < mergeCacheDepth &&
				mc.parent[depth] == dst && mc.name[depth] == string(nameB) {
				if err := mergeNode(r, mc.child[depth], depth+1, mc); err != nil {
					return err
				}
				continue
			}
			// Inline ensureChild with a byte-slice key: the map probe on the
			// hot repeated-path case allocates nothing.
			if dst.kind != KindObject {
				dst.kind = KindObject
				dst.i, dst.f, dst.s, dst.b, dst.ia, dst.fa = 0, 0, "", false, nil, nil
			}
			dst.flatten()
			if dst.children == nil {
				dst.children = make(map[string]*Node)
			}
			c, ok := dst.children[string(nameB)]
			if !ok {
				c = &Node{}
				name := string(nameB)
				dst.children[name] = c
				dst.order = append(dst.order, name)
			}
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
		dst.setLeaf(k)
		dst.i, dst.f, dst.s, dst.b, dst.ia, dst.fa = v, 0, "", false, nil, nil
	case KindFloat:
		v, err := r.f64()
		if err != nil {
			return err
		}
		dst.setLeaf(k)
		dst.i, dst.f, dst.s, dst.b, dst.ia, dst.fa = 0, v, "", false, nil, nil
	case KindString:
		v, err := r.str()
		if err != nil {
			return err
		}
		dst.setLeaf(k)
		dst.i, dst.f, dst.s, dst.b, dst.ia, dst.fa = 0, 0, v, false, nil, nil
	case KindBool:
		bv, err := r.u8()
		if err != nil {
			return err
		}
		dst.setLeaf(k)
		dst.i, dst.f, dst.s, dst.b, dst.ia, dst.fa = 0, 0, "", bv != 0, nil, nil
	case KindIntArray:
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > maxDecodeItems {
			return fmt.Errorf("conduit: array count %d too large", count)
		}
		ia := make([]int64, count)
		for i := range ia {
			if ia[i], err = r.varint(); err != nil {
				return err
			}
		}
		dst.setLeaf(k)
		dst.i, dst.f, dst.s, dst.b, dst.ia, dst.fa = 0, 0, "", false, ia, nil
	case KindFloatArray:
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > maxDecodeItems {
			return fmt.Errorf("conduit: array count %d too large", count)
		}
		fa := make([]float64, count)
		for i := range fa {
			if fa[i], err = r.f64(); err != nil {
				return err
			}
		}
		dst.setLeaf(k)
		dst.i, dst.f, dst.s, dst.b, dst.ia, dst.fa = 0, 0, "", false, nil, fa
	default:
		return fmt.Errorf("conduit: unknown kind %d", kb)
	}
	return nil
}

// jsonValue converts the subtree into the natural encoding/json value shape:
// objects become map-with-order-lost, leaves become scalars/slices. Used by
// MarshalJSON; the binary codec is authoritative for transport.
func (n *Node) jsonValue() interface{} {
	switch n.kind {
	case KindObject:
		m := make(map[string]interface{}, len(n.order))
		for _, name := range n.order {
			m[name] = n.lookup(name).jsonValue()
		}
		return m
	case KindEmpty:
		return nil
	default:
		return n.Value()
	}
}

// MarshalJSON renders the subtree as plain JSON (objects/scalars/arrays).
// Child insertion order is not preserved; use EncodeBinary when order
// matters.
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(n.jsonValue())
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
			c := n.ensureChild(name)
			if err := c.fromJSONValue(cv); err != nil {
				return err
			}
		}
	case json.Number:
		if i, ok := jsonInt(x); ok {
			n.setLeaf(KindInt)
			n.i = i
			return nil
		}
		f, err := x.Float64()
		if err != nil {
			return err
		}
		n.setLeaf(KindFloat)
		n.f = f
	case string:
		n.setLeaf(KindString)
		n.s = x
	case bool:
		n.setLeaf(KindBool)
		n.b = x
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
			n.setLeaf(KindIntArray)
			n.ia = make([]int64, len(x))
			for i, e := range x {
				n.ia[i], _ = e.(json.Number).Int64()
			}
		} else {
			n.setLeaf(KindFloatArray)
			n.fa = make([]float64, len(x))
			for i, e := range x {
				f, err := e.(json.Number).Float64()
				if err != nil {
					return err
				}
				n.fa[i] = f
			}
		}
	default:
		return fmt.Errorf("conduit: unsupported JSON value %T", v)
	}
	return nil
}
