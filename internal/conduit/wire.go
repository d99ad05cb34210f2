package conduit

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
)

// Readers over encoded tree frames that never build a node: the SOMA
// service's ingest pipeline runs its rollup, alert and placement stages over
// the bytes a publish arrived as. All of them are safe on arbitrary input —
// they bounds-check every read and apply validateNode's maxDepth and
// maxDecodeItems guards — so a frame need not have been validated first,
// though the service always validates at the door.
//
// Paths are joined exactly like Node.Walk joins them ('/' between names, none
// before the first), so on a frame without duplicate sibling names the walk
// visits the same paths in the same order as Walk over the decoded tree. A
// hostile frame that repeats a name under one object is visited as written —
// once per wire leaf — whereas decoding merges the repeats first; the service
// accepts that difference for rollup samples and shard keys (snapshots still
// merge duplicates, see mergeNode).

// leafWalk is the shared recursive descent behind WalkNumericLeaves and
// FirstLeafPath: validateNode's walk with a path buffer carried along.
type leafWalk struct {
	r    binReader
	path []byte
}

// node walks one encoded node whose path is already in w.path. fn receives
// every int and float leaf; nil selects first-leaf mode, in which the walk
// stops — stop is true — at the first non-object node of any kind. (fn is a
// parameter, not a field, so that callers' closures stay on their stacks.)
func (w *leafWalk) node(depth int, fn func(path []byte, v float64)) (stop bool, err error) {
	r := &w.r
	if depth > maxDepth {
		return false, errors.New("conduit: tree too deep")
	}
	kb, err := r.u8()
	if err != nil {
		return false, err
	}
	k := Kind(kb)
	if k > KindFloatArray {
		return false, fmt.Errorf("conduit: unknown kind %d", kb)
	}
	if k != KindObject && fn == nil {
		return true, nil
	}
	switch k {
	case KindObject:
		count, err := r.count(minChildBytes)
		if err != nil {
			return false, err
		}
		mark := len(w.path)
		for i := 0; i < count; i++ {
			name, err := r.strBytes()
			if err != nil {
				return false, err
			}
			if mark > 0 {
				w.path = append(w.path, '/')
			}
			w.path = append(w.path, name...)
			if stop, err := w.node(depth+1, fn); stop || err != nil {
				return stop, err
			}
			w.path = w.path[:mark]
		}
	case KindInt:
		v, err := r.varint()
		if err != nil {
			return false, err
		}
		if depth > 0 {
			fn(w.path, float64(v))
		}
	case KindFloat:
		v, err := r.f64()
		if err != nil {
			return false, err
		}
		if depth > 0 {
			fn(w.path, v)
		}
	default:
		// Nothing to report: step over the node exactly as validation does.
		r.pos--
		return false, validateNode(r, depth)
	}
	return false, nil
}

// WalkNumericLeaves calls fn for every int and float leaf of an encoded tree
// frame, in wire order, with the leaf's '/'-joined path and its value as a
// float64 — the sample stream the service's rollups fold, read straight off
// the wire. Strings, bools, arrays and empty nodes are stepped over; a frame
// whose root is itself a scalar has no path and yields nothing. path aliases
// buf, which is grown as needed and returned for the next call: a caller
// that recycles it walks without allocating, and must copy any path it keeps.
func WalkNumericLeaves(frame, buf []byte, fn func(path []byte, v float64)) ([]byte, error) {
	if !hasTreeMagic(frame) {
		return buf, ErrBadMagic
	}
	w := leafWalk{r: binReader{data: frame, pos: 4}, path: buf[:0]}
	if _, err := w.node(0, fn); err != nil {
		return w.path[:0], err
	}
	if w.r.pos != len(frame) {
		return w.path[:0], fmt.Errorf("conduit: %d trailing bytes", len(frame)-w.r.pos)
	}
	return w.path[:0], nil
}

// FirstLeafPath returns the path of the first leaf (of any kind) of an
// encoded tree frame — the shard-routing key of a publish, equal to what
// Walk over the decoded tree visits first. The result is empty when the tree
// has no leaf or is a bare scalar, and aliases buf like WalkNumericLeaves'
// paths do. Only the bytes up to that leaf are read.
func FirstLeafPath(frame, buf []byte) ([]byte, error) {
	if !hasTreeMagic(frame) {
		return buf[:0], ErrBadMagic
	}
	w := leafWalk{r: binReader{data: frame, pos: 4}, path: buf[:0]}
	stop, err := w.node(0, nil)
	if err != nil || !stop {
		return w.path[:0], err
	}
	return w.path, nil
}

// strBytes reads a length-prefixed string as a subslice of the frame.
func (r *binReader) strBytes() ([]byte, error) {
	ln, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.data)-r.pos) < ln {
		return nil, ErrTruncated
	}
	b := r.data[r.pos : r.pos+int(ln)]
	r.pos += int(ln)
	return b, nil
}

// SliceFields validates a tree frame whole, exactly like ValidateBinary, and
// on the way records where the root object's direct children called names[i]
// sit: out[i] becomes the child's raw node encoding (kind byte and payload,
// no magic) as a subslice of frame, or nil when the root has no such child —
// or is not an object at all. It is how the service takes an RPC envelope
// such as {ns, data} apart without decoding it. A requested name that occurs
// twice is an error: honest encoders never repeat a name, and an envelope
// must not mean different things to readers that keep the first or the last.
// len(out) must equal len(names).
func SliceFields(frame []byte, names []string, out [][]byte) error {
	for i := range out {
		out[i] = nil
	}
	if !hasTreeMagic(frame) {
		return ErrBadMagic
	}
	r := binReader{data: frame, pos: 4}
	if len(frame) == 4 || Kind(frame[4]) != KindObject {
		if err := validateNode(&r, 0); err != nil {
			return err
		}
	} else {
		r.pos++
		count, err := r.count(minChildBytes)
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			name, err := r.strBytes()
			if err != nil {
				return err
			}
			start := r.pos
			if err := validateNode(&r, 1); err != nil {
				return err
			}
			for k, want := range names {
				if want != string(name) {
					continue
				}
				if out[k] != nil {
					return fmt.Errorf("conduit: duplicate envelope field %q", want)
				}
				out[k] = frame[start:r.pos:r.pos]
			}
		}
	}
	if r.pos != len(frame) {
		return fmt.Errorf("conduit: %d trailing bytes", len(frame)-r.pos)
	}
	return nil
}

// AppendRawFrame appends a complete tree frame — magic plus the raw node
// encoding SliceFields returned — to dst. Appending to nil is how a caller
// takes the private copy of a field that must outlive the request buffer.
func AppendRawFrame(dst, node []byte) []byte {
	dst = append(dst, binMagic[:]...)
	return append(dst, node...)
}

// Raw node writers, the append side of SliceFields: a caller splicing nodes it
// already holds encoded writes the envelope around them with these instead of
// building a tree. An object is AppendRawObject followed by children times
// AppendRawName and one node — a leaf below, or a raw node appended as is.

// AppendRawObject appends the header of an object node with children children.
func AppendRawObject(dst []byte, children int) []byte {
	return appendUvarint(append(dst, byte(KindObject)), uint64(children))
}

// AppendRawName appends the name that precedes a child of an object.
func AppendRawName(dst []byte, name string) []byte { return appendString(dst, name) }

// AppendRawString appends a string leaf.
func AppendRawString(dst []byte, s string) []byte {
	return appendString(append(dst, byte(KindString)), s)
}

// AppendRawInt appends an int leaf.
func AppendRawInt(dst []byte, v int64) []byte {
	return appendVarint(append(dst, byte(KindInt)), v)
}

// AppendRawFloat appends a float leaf.
func AppendRawFloat(dst []byte, f float64) []byte {
	return appendFloat(append(dst, byte(KindFloat)), f)
}

// AppendRawBool appends a bool leaf.
func AppendRawBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, byte(KindBool), 1)
	}
	return append(dst, byte(KindBool), 0)
}

// RawString returns the bytes of a raw string node (as sliced by
// SliceFields), aliasing node; ok is false for any other kind.
func RawString(node []byte) (s []byte, ok bool) {
	if len(node) == 0 || Kind(node[0]) != KindString {
		return nil, false
	}
	r := binReader{data: node, pos: 1}
	ln, err := r.uvarint()
	if err != nil || uint64(len(node)-r.pos) != ln {
		return nil, false
	}
	return node[r.pos:], true
}

// RawInt returns the value of a raw int node, or of a raw float node
// truncated — Node.Int's conversion; ok is false for any other kind.
func RawInt(node []byte) (v int64, ok bool) {
	if len(node) == 0 {
		return 0, false
	}
	r := binReader{data: node, pos: 1}
	switch Kind(node[0]) {
	case KindInt:
		v, err := r.varint()
		return v, err == nil
	case KindFloat:
		f, err := r.f64()
		return int64(f), err == nil
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// MergeNodes: the union of encoded trees, computed over their bytes.

// mergeEnt is one occurrence of a node inside the sources being merged: the
// root of a source, or one (name, child) entry of an object. Occurrences of
// one name at one level are chained through next, first source first — the
// order Merge would have applied them in. Everything is an offset, so the
// scratch holding these is invisible to the garbage collector.
type mergeEnt struct {
	src     uint32 // index into nodeMerger.srcs: the buffer the offsets are into
	grp     uint32 // the frame object this occurrence was written in; see collapse
	name    uint32 // src[name:nameEnd] is the child's name
	nameEnd uint32
	node    uint32 // src[node:end] is the node's raw encoding
	end     uint32
	next    int32 // next occurrence of the same name, -1 at the chain's end
	tail    int32 // on a chain's head: its last occurrence
	head    bool  // first occurrence of its name at this level
	plain   bool  // src[node:end] holds no zero-child object, so a verbatim copy equals its merge
	checked bool  // src[node:end] was validated by the level above
}

// nodeMerger is MergeNodes' reusable scratch. ents is a stack: each level of
// the recursion pushes the children it indexed and pops them on return.
type nodeMerger struct {
	srcs    [][]byte
	ents    []mergeEnt
	tab     []int32 // open-addressing name table of one level; value = entry index + 1
	nextGrp uint32
}

var mergerPool = sync.Pool{New: func() interface{} { return new(nodeMerger) }}

// mergeHashSeed keys the per-level name tables.
var mergeHashSeed = maphash.MakeSeed()

const (
	// mergeLinearMax is the widest level grouped by comparing names pairwise;
	// wider levels go through the hash table.
	mergeLinearMax = 8
	// maxPooledMergeEnts bounds the entry scratch that goes back into the
	// pool (36 bytes each) so one huge merge does not pin memory forever.
	maxPooledMergeEnts = 1 << 18
)

// MergeNodes appends to dst the raw encoding of the union of nodes — raw node
// encodings as SliceFields returns them (kind byte and payload, no magic) —
// and returns the extended slice. The result decodes to exactly the tree that
// decoding every node and folding them in order with Node.Merge into a fresh
// node yields: a later leaf overwrites, objects union child by child in
// first-seen order, a leaf↔object flip re-shapes, an empty node or an object
// without children changes nothing, and a position nothing wrote is empty.
// When the inputs are what EncodeBinary emits, the bytes equal EncodeBinary of
// that tree as well.
//
// No tree is built. Each object level indexes its sources' children by name
// over offsets into the inputs; a child only one source holds is copied
// verbatim, and the walk descends only where names collide, so each input
// byte is read once per colliding ancestor level. The inputs are untrusted:
// every one is validated whole with ValidateBinary's checks (depth, counts,
// truncation, trailing bytes), an error names the offending input's index, and
// dst comes back at its original length. A name an input repeats inside one
// object means what decoding makes of it (the repeats merge in order); where
// such an object is copied verbatim the repeats travel with it, for the
// reader's decode to merge.
func MergeNodes(dst []byte, nodes [][]byte) ([]byte, error) {
	m := mergerPool.Get().(*nodeMerger)
	out, err := m.merge(dst, nodes)
	clear(m.srcs) // the inputs belong to the caller
	if cap(m.ents) <= maxPooledMergeEnts {
		mergerPool.Put(m)
	}
	return out, err
}

func (m *nodeMerger) merge(dst []byte, nodes [][]byte) ([]byte, error) {
	if len(nodes) == 0 {
		return append(dst, byte(KindEmpty)), nil
	}
	m.srcs, m.ents = append(m.srcs[:0], nodes...), m.ents[:0]
	m.nextGrp = uint32(len(nodes))
	for i, nd := range nodes {
		if len(nd) == 0 {
			return dst, fmt.Errorf("conduit: merge source %d: %w", i, ErrTruncated)
		}
		if uint64(len(nd)) > math.MaxUint32 {
			return dst, fmt.Errorf("conduit: merge source %d: %d bytes is too large", i, len(nd))
		}
		next := int32(i + 1)
		if i == len(nodes)-1 {
			next = -1
		}
		m.ents = append(m.ents, mergeEnt{src: uint32(i), grp: uint32(i), end: uint32(len(nd)), next: next})
	}
	out, err := m.emit(dst, 0, 0)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// emit appends the union of the occurrence chain starting at head, whose
// nodes sit at the given depth.
func (m *nodeMerger) emit(dst []byte, head int32, depth int) ([]byte, error) {
	if e := &m.ents[head]; e.next < 0 && e.plain {
		return append(dst, m.srcs[e.src][e.node:e.end]...), nil
	}
	for i := head; m.ents[i].next >= 0; i = m.ents[i].next {
		if m.ents[m.ents[i].next].grp == m.ents[i].grp {
			return m.collapse(dst, head, depth)
		}
	}
	// Merge's kind rules: a leaf replaces whatever was there, so only what
	// follows the last leaf can still contribute children.
	last := int32(-1)
	for i := head; i >= 0; i = m.ents[i].next {
		e := &m.ents[i]
		if k := Kind(m.srcs[e.src][e.node]); k != KindObject && k != KindEmpty {
			last = i
		}
	}
	base := len(m.ents)
	live := last < 0
	for i := head; i >= 0; i = m.ents[i].next {
		e := m.ents[i]
		var err error
		if live && Kind(m.srcs[e.src][e.node]) == KindObject {
			err = m.index(e, depth)
		} else if !e.checked {
			r := binReader{data: m.srcs[e.src], pos: int(e.node)}
			if err = validateNode(&r, depth); err == nil && r.pos != int(e.end) {
				err = fmt.Errorf("conduit: %d trailing bytes", int(e.end)-r.pos)
			}
		}
		if err != nil {
			if depth == 0 {
				err = fmt.Errorf("conduit: merge source %d: %w", e.grp, err)
			}
			return dst, err
		}
		live = live || i == last
	}
	if len(m.ents) == base {
		// No children anywhere: the last leaf stands, or nothing was written.
		if last < 0 {
			return append(dst, byte(KindEmpty)), nil
		}
		e := &m.ents[last]
		return append(dst, m.srcs[e.src][e.node:e.end]...), nil
	}
	dst = append(dst, byte(KindObject))
	dst = appendUvarint(dst, uint64(m.group(base)))
	for j, end := base, len(m.ents); j < end; j++ {
		e := &m.ents[j]
		if !e.head {
			continue
		}
		name := m.srcs[e.src][e.name:e.nameEnd]
		dst = appendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		var err error
		if dst, err = m.emit(dst, int32(j), depth+1); err != nil {
			return dst, err
		}
	}
	m.ents = m.ents[:base]
	return dst, nil
}

// index pushes one entry per child of the object occurrence e, validating
// every child on the way (that walk is also what finds where each one ends).
func (m *nodeMerger) index(e mergeEnt, depth int) error {
	r := binReader{data: m.srcs[e.src], pos: int(e.node) + 1}
	count, err := r.count(minChildBytes)
	if err != nil {
		return err
	}
	for c := 0; c < count; c++ {
		name, err := r.strBytes()
		if err != nil {
			return err
		}
		node, empties := r.pos, r.emptyObjs
		if err := validateNode(&r, depth+1); err != nil {
			return err
		}
		m.ents = append(m.ents, mergeEnt{
			src: e.src, grp: e.grp,
			name: uint32(node - len(name)), nameEnd: uint32(node),
			node: uint32(node), end: uint32(r.pos),
			next: -1, plain: r.emptyObjs == empties, checked: true,
		})
	}
	if r.pos != int(e.end) {
		return fmt.Errorf("conduit: %d trailing bytes", int(e.end)-r.pos)
	}
	return nil
}

// group chains the entries m.ents[base:] by name — marking the first
// occurrence of each name as the chain's head — and returns the number of
// distinct names.
func (m *nodeMerger) group(base int) (groups int) {
	ents := m.ents[base:]
	nameOf := func(e *mergeEnt) []byte { return m.srcs[e.src][e.name:e.nameEnd] }
	link := func(h, j int) {
		ents[ents[h].tail].next = int32(base + j)
		ents[h].tail = int32(j)
	}
	if len(ents) <= mergeLinearMax {
		for j := range ents {
			name, h := nameOf(&ents[j]), 0
			for ; h < j; h++ {
				if ents[h].head && bytes.Equal(nameOf(&ents[h]), name) {
					link(h, j)
					break
				}
			}
			if h == j {
				ents[j].head, ents[j].tail = true, int32(j)
				groups++
			}
		}
		return groups
	}
	size := 16
	for size < 2*len(ents) {
		size <<= 1
	}
	if cap(m.tab) < size {
		m.tab = make([]int32, size)
	}
	tab := m.tab[:size]
	clear(tab)
	for j := range ents {
		name := nameOf(&ents[j])
		slot := int(maphash.Bytes(mergeHashSeed, name)) & (size - 1)
		for ; tab[slot] != 0; slot = (slot + 1) & (size - 1) {
			if h := int(tab[slot] - 1); bytes.Equal(nameOf(&ents[h]), name) {
				link(h, j)
				break
			}
		}
		if tab[slot] == 0 {
			tab[slot] = int32(j + 1)
			ents[j].head, ents[j].tail = true, int32(j)
			groups++
		}
	}
	return groups
}

// collapse handles a chain in which one frame object contributed a name more
// than once (adjacent occurrences share grp) — something only a hostile
// encoder writes. Decoding merges such repeats among themselves before the
// frame's tree is merged with the others, and Merge is not associative across
// a leaf→object flip, so the repeats cannot simply queue up as further
// sources: each run is first replaced by its own union, encoded into a fresh
// buffer, and the chain of those is what gets emitted.
func (m *nodeMerger) collapse(dst []byte, head int32, depth int) ([]byte, error) {
	base, srcBase := len(m.ents), len(m.srcs)
	for i := head; i >= 0; {
		e := m.ents[i]
		run, j := 1, e.next
		for ; j >= 0 && m.ents[j].grp == e.grp; j = m.ents[j].next {
			run++
		}
		if run > 1 {
			// The run's occurrences become sources of their own.
			tmp := int32(len(m.ents))
			for k, c := i, 0; c < run; c++ {
				o := m.ents[k]
				k = o.next
				o.grp, o.next, o.head = m.nextGrp, tmp+int32(c)+1, false
				if c == run-1 {
					o.next = -1
				}
				m.nextGrp++
				m.ents = append(m.ents, o)
			}
			union, err := m.emit(nil, tmp, depth)
			if err != nil {
				return dst, err
			}
			m.ents = m.ents[:tmp]
			m.srcs = append(m.srcs, union)
			e = mergeEnt{src: uint32(len(m.srcs) - 1), grp: e.grp, end: uint32(len(union)), plain: true, checked: true}
		}
		e.next, e.head = -1, false
		if len(m.ents) > base {
			m.ents[len(m.ents)-1].next = int32(len(m.ents))
		}
		m.ents = append(m.ents, e)
		i = j
	}
	dst, err := m.emit(dst, int32(base), depth)
	clear(m.srcs[srcBase:])
	m.srcs, m.ents = m.srcs[:srcBase], m.ents[:base]
	return dst, err
}
