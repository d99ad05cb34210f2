package conduit

import (
	"errors"
	"fmt"
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
		count, err := r.uvarint()
		if err != nil {
			return false, err
		}
		if count > maxDecodeItems {
			return false, fmt.Errorf("conduit: child count %d too large", count)
		}
		mark := len(w.path)
		for i := uint64(0); i < count; i++ {
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
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > maxDecodeItems {
			return fmt.Errorf("conduit: child count %d too large", count)
		}
		for i := uint64(0); i < count; i++ {
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
