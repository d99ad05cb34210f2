// Package conduit implements a hierarchical, schema-free data model in the
// spirit of LLNL's Conduit library, which the SOMA paper uses to represent
// all monitoring data. A Node is an ordered tree: interior nodes hold named
// children, leaf nodes hold a typed scalar or array value. Paths use '/' as
// the separator, exactly like Conduit's fetch paths, so the layouts shown in
// the paper (Listings 1 and 2) translate one to one:
//
//	n := conduit.NewNode()
//	n.SetString("RP/task.000000/1698435412.6060030", "launch_start")
//	n.SetInt("PROC/cn4302/3824813742052238/Uptime", 49902)
//
// Nodes are not safe for concurrent mutation; callers that share a Node
// across goroutines must synchronize externally (the SOMA service does).
package conduit

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Kind identifies what a Node holds.
type Kind uint8

// Node kinds. An Object node has named children; every other kind is a leaf.
const (
	KindEmpty Kind = iota
	KindObject
	KindInt
	KindFloat
	KindString
	KindBool
	KindIntArray
	KindFloatArray
)

var kindNames = [...]string{
	KindEmpty:      "empty",
	KindObject:     "object",
	KindInt:        "int64",
	KindFloat:      "float64",
	KindString:     "string",
	KindBool:       "bool",
	KindIntArray:   "int64_array",
	KindFloatArray: "float64_array",
}

// String returns the Conduit-style dtype name for k.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is one vertex of the hierarchy. The zero value is an empty node.
//
// The header is 40 bytes and is all a scalar leaf — nearly every node of a
// monitoring tree — ever allocates. Children, arrays and copy-on-write state
// live behind ext, which only non-empty objects and array leaves carry.
type Node struct {
	kind Kind
	// num is the scalar payload: an int64's bits, a float64's IEEE 754 bits,
	// or 0/1 for a bool.
	num uint64
	s   string
	ext *nodeExt
}

// nodeExt is what an object or an array leaf holds beyond the header.
type nodeExt struct {
	// names and vals hold an object's children positionally, in insertion
	// order — which matters for deterministic serialization and for
	// timeline-like layouts whose child names are timestamps appended in
	// order: vals[i] is the child named names[i]. A names slice may be shared
	// between nodes (MergeCOW results alias their base's), so it is only ever
	// appended to through a capacity-pinned slice and never shifted in place.
	names []string
	vals  []*Node
	// index maps a child's name to its position in vals. A plain object has
	// one only past smallObject children; a copy-on-write overlay always.
	index map[string]int
	// base, when non-nil, is the shared layer under a MergeCOW overlay. vals
	// is then just the node's delta — the additions to and overrides of base,
	// in no particular order, found through index — while names covers base
	// and delta together, base's own names being a prefix of it, so position
	// i means the same child name in every layer of a chain. Overlays are
	// immutable by contract; the mutating entry points flatten them into
	// plain objects first (own).
	base *Node
	// ia and fa are stored by reference; callers that need isolation should
	// pass copies (Set*Array copies by default, see below).
	ia []int64
	fa []float64
}

// smallObject is the widest object resolved by scanning names instead of
// through an index map. Measured either side of it, on 3-byte ("s07"),
// 7-byte ("cn00042") and 17-byte (timestamp) names alike: a hit by scan costs
// 16 / 24 / 36 / 72 ns at 4 / 8 / 16 / 32 names against a flat 15–18 ns by
// index, so at 32 the scan loses 4×; at 8 every 16-metric host of the
// repository benchmark's LOAD tree would carry a map, and decoding that
// 1 250 × 16 frame goes 1.9 → 3.0 ms and 1.95 → 3.19 MB.
const smallObject = 16

// NewNode returns an empty node ready for use.
func NewNode() *Node { return &Node{} }

// Kind reports what the node currently holds.
func (n *Node) Kind() Kind { return n.kind }

// isLeaf reports whether the node holds a value rather than children.
func (n *Node) isLeaf() bool { return n.kind != KindObject && n.kind != KindEmpty }

// IsEmpty reports whether the node holds nothing at all.
func (n *Node) IsEmpty() bool { return n.kind == KindEmpty }

// NumChildren returns the number of direct children.
func (n *Node) NumChildren() int { return len(n.names()) }

// ChildNames returns the direct child names in insertion order. The returned
// slice is a copy.
func (n *Node) ChildNames() []string {
	return append([]string{}, n.names()...)
}

// names returns the child names in insertion order without copying; nil for
// anything but a non-empty object.
func (n *Node) names() []string {
	if n.ext == nil {
		return nil
	}
	return n.ext.names
}

// at returns the child at position i of names(). On a plain object that is
// one slice load; on an overlay the delta of each layer is probed by name
// and the flat base at the bottom of the chain answers by position.
func (n *Node) at(i int) *Node {
	e := n.ext
	if e.base == nil {
		return e.vals[i]
	}
	name := e.names[i]
	for ; e.base != nil; e = e.base.ext {
		if j, ok := e.index[name]; ok {
			return e.vals[j]
		}
	}
	return e.vals[i]
}

// pos returns where in e.vals the child called name sits, or -1: through the
// index when e has one, else by scanning the names of a small plain object.
func pos[S string | []byte](e *nodeExt, name S) int {
	if e.index != nil {
		if j, ok := e.index[string(name)]; ok {
			return j
		}
		return -1
	}
	for i, nm := range e.names {
		if nm == string(name) {
			return i
		}
	}
	return -1
}

// lookup resolves a direct child by name, through the copy-on-write chain
// when there is one: each layer's delta first, then the flat base. Overlay
// chains are kept at most cowMaxChain layers deep by MergeCOW. Nothing is
// ever built or cached here: a tree nobody mutates is safe to read from any
// number of goroutines.
func lookup[S string | []byte](n *Node, name S) *Node {
	for e := n.ext; e != nil; e = e.base.ext {
		if j := pos(e, name); j >= 0 {
			return e.vals[j]
		}
		if e.base == nil {
			return nil
		}
	}
	return nil
}

// setScalar makes n a scalar leaf (or, with KindEmpty, nothing), dropping any
// children or array it held.
func (n *Node) setScalar(k Kind, num uint64, s string) {
	n.kind, n.num, n.s, n.ext = k, num, s, nil
}

// setArray makes n an array leaf; exactly one of ia and fa is meaningful.
func (n *Node) setArray(k Kind, ia []int64, fa []float64) {
	n.kind, n.num, n.s, n.ext = k, 0, "", &nodeExt{ia: ia, fa: fa}
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (n *Node) float() float64 { return math.Float64frombits(n.num) }

// own makes n a plain object its caller may add children to — a leaf is
// re-shaped (assigning children to a leaf converts it, mirroring Conduit's
// behaviour of re-shaping on assignment), an overlay flattened — and returns
// its ext.
func (n *Node) own() *nodeExt {
	if n.kind != KindObject || n.ext == nil {
		n.kind, n.num, n.s, n.ext = KindObject, 0, "", &nodeExt{}
	}
	n.flatten()
	return n.ext
}

// flatten materializes a copy-on-write overlay node into a plain object,
// resolving the base chain into owned vals (and an index when wide). A no-op
// on plain nodes.
func (n *Node) flatten() {
	e := n.ext
	if e == nil || e.base == nil {
		return
	}
	vals := make([]*Node, len(e.names))
	for i := range vals {
		vals[i] = n.at(i)
	}
	*e = nodeExt{names: e.names[:len(e.names):len(e.names)], vals: vals}
	e.reindex()
}

// reindex gives a plain object the index its width calls for.
func (e *nodeExt) reindex() {
	e.index = nil
	if len(e.names) <= smallObject {
		return
	}
	e.index = make(map[string]int, len(e.names))
	for i, name := range e.names {
		e.index[name] = i
	}
}

// add appends a child the plain object e does not hold yet.
func (e *nodeExt) add(name string, c *Node) {
	e.names = append(e.names, name)
	e.vals = append(e.vals, c)
	if e.index != nil {
		e.index[name] = len(e.vals) - 1
	} else if len(e.names) > smallObject {
		e.reindex()
	}
}

// Child returns the direct child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	return lookup(n, name)
}

// ensureChild returns the direct child with the given name, creating it (and
// converting n into an object node) when absent. A byte-slice name is copied
// only when the child is new, so the wire merge's lookup of a path it has
// seen allocates nothing.
func ensureChild[S string | []byte](n *Node, name S) *Node {
	e := n.own()
	c := lookup(n, name)
	if c == nil {
		c = &Node{}
		e.add(string(name), c)
	}
	return c
}

// splitPath splits a '/'-separated path, dropping empty segments so that
// "a//b/" means "a/b".
func splitPath(path string) []string {
	raw := strings.Split(path, "/")
	segs := raw[:0]
	for _, s := range raw {
		if s != "" {
			segs = append(segs, s)
		}
	}
	return segs
}

// nextSeg iterates path segments without allocating: it returns the first
// non-empty segment and the remainder. seg is "" only when path is
// exhausted.
func nextSeg(path string) (seg, rest string) {
	for path != "" {
		i := strings.IndexByte(path, '/')
		if i < 0 {
			return path, ""
		}
		seg, path = path[:i], path[i+1:]
		if seg != "" {
			return seg, path
		}
	}
	return "", ""
}

// Fetch returns the node at path, creating intermediate object nodes as
// needed. Fetch with an empty path returns n itself.
func (n *Node) Fetch(path string) *Node {
	cur := n
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		cur = ensureChild(cur, seg)
	}
	return cur
}

// Get returns the node at path without creating anything; ok is false when
// any path segment is missing.
func (n *Node) Get(path string) (node *Node, ok bool) {
	cur := n
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		cur = cur.Child(seg)
		if cur == nil {
			return nil, false
		}
	}
	return cur, true
}

// Has reports whether a node exists at path.
func (n *Node) Has(path string) bool {
	_, ok := n.Get(path)
	return ok
}

// Remove deletes the child subtree at path. It reports whether anything was
// removed.
func (n *Node) Remove(path string) bool {
	segs := splitPath(path)
	if len(segs) == 0 {
		return false
	}
	parent := n
	for _, seg := range segs[:len(segs)-1] {
		parent = parent.Child(seg)
		if parent == nil {
			return false
		}
	}
	parent.flatten()
	e := parent.ext
	if e == nil {
		return false
	}
	i := pos(e, segs[len(segs)-1])
	if i < 0 {
		return false
	}
	// The head is capacity-pinned so the append copies: names may be shared
	// with the node this one was merged from.
	e.names = append(e.names[:i:i], e.names[i+1:]...)
	e.vals = append(e.vals[:i], e.vals[i+1:]...)
	if e.index != nil {
		e.reindex()
	}
	return true
}

// SetInt stores an int64 leaf at path.
func (n *Node) SetInt(path string, v int64) {
	n.Fetch(path).setScalar(KindInt, uint64(v), "")
}

// SetFloat stores a float64 leaf at path.
func (n *Node) SetFloat(path string, v float64) {
	n.Fetch(path).setScalar(KindFloat, math.Float64bits(v), "")
}

// SetString stores a string leaf at path.
func (n *Node) SetString(path, v string) {
	n.Fetch(path).setScalar(KindString, 0, v)
}

// SetBool stores a bool leaf at path.
func (n *Node) SetBool(path string, v bool) {
	n.Fetch(path).setScalar(KindBool, boolBits(v), "")
}

// SetIntArray stores a copy of v as an int64 array leaf at path.
func (n *Node) SetIntArray(path string, v []int64) {
	n.Fetch(path).setArray(KindIntArray, append([]int64(nil), v...), nil)
}

// SetFloatArray stores a copy of v as a float64 array leaf at path.
func (n *Node) SetFloatArray(path string, v []float64) {
	n.Fetch(path).setArray(KindFloatArray, nil, append([]float64(nil), v...))
}

// Int returns the int64 at path. Float leaves are truncated. ok is false
// when the path is missing or holds a non-numeric leaf.
func (n *Node) Int(path string) (v int64, ok bool) {
	c, ok := n.Get(path)
	if !ok {
		return 0, false
	}
	switch c.kind {
	case KindInt:
		return int64(c.num), true
	case KindFloat:
		return int64(c.float()), true
	default:
		return 0, false
	}
}

// Float returns the float64 at path, converting int leaves.
func (n *Node) Float(path string) (v float64, ok bool) {
	c, ok := n.Get(path)
	if !ok {
		return 0, false
	}
	switch c.kind {
	case KindFloat:
		return c.float(), true
	case KindInt:
		return float64(int64(c.num)), true
	default:
		return 0, false
	}
}

// String returns the string at path.
func (n *Node) StringVal(path string) (v string, ok bool) {
	c, ok := n.Get(path)
	if !ok || c.kind != KindString {
		return "", false
	}
	return c.s, true
}

// Bool returns the bool at path.
func (n *Node) Bool(path string) (v bool, ok bool) {
	c, ok := n.Get(path)
	if !ok || c.kind != KindBool {
		return false, false
	}
	return c.num != 0, true
}

// IntArray returns the int64 array stored at path. The returned slice is the
// node's backing array; treat it as read-only.
func (n *Node) IntArray(path string) (v []int64, ok bool) {
	c, ok := n.Get(path)
	if !ok || c.kind != KindIntArray {
		return nil, false
	}
	return c.ext.ia, true
}

// FloatArray returns the float64 array stored at path; read-only.
func (n *Node) FloatArray(path string) (v []float64, ok bool) {
	c, ok := n.Get(path)
	if !ok || c.kind != KindFloatArray {
		return nil, false
	}
	return c.ext.fa, true
}

// Value returns the leaf value as an interface{} (nil for object/empty).
func (n *Node) Value() interface{} {
	switch n.kind {
	case KindInt:
		return int64(n.num)
	case KindFloat:
		return n.float()
	case KindString:
		return n.s
	case KindBool:
		return n.num != 0
	case KindIntArray:
		return n.ext.ia
	case KindFloatArray:
		return n.ext.fa
	default:
		return nil
	}
}

// setLeafFrom makes n a copy of the leaf src, arrays included.
func (n *Node) setLeafFrom(src *Node) {
	switch src.kind {
	case KindIntArray, KindFloatArray:
		n.setArray(src.kind, append([]int64(nil), src.ext.ia...), append([]float64(nil), src.ext.fa...))
	default:
		n.setScalar(src.kind, src.num, src.s)
	}
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n.kind != KindObject {
		out := &Node{}
		out.setLeafFrom(n)
		return out
	}
	names := n.names()
	if len(names) == 0 {
		return &Node{kind: KindObject}
	}
	e := &nodeExt{names: append([]string(nil), names...), vals: make([]*Node, len(names))}
	for i := range names {
		e.vals[i] = n.at(i).Clone()
	}
	e.reindex()
	return &Node{kind: KindObject, ext: e}
}

// Merge copies every leaf of src into n, overwriting leaves that collide and
// creating intermediate objects as needed. Children unique to n survive.
// This is how the SOMA service combines updates arriving for the same
// namespace collection.
func (n *Node) Merge(src *Node) {
	if src == nil {
		return
	}
	if src.kind != KindObject {
		if src.kind != KindEmpty {
			n.setLeafFrom(src)
		}
		return
	}
	for i, name := range src.names() {
		ensureChild(n, name).Merge(src.at(i))
	}
}

// Attach grafts child into n as the direct child with the given name,
// replacing any existing child, without copying — the zero-copy counterpart
// of Fetch(name).Merge(child). The child is shared by reference: the caller
// must not mutate it afterwards. SOMA's hot paths use it to wrap published
// trees in RPC envelopes and snapshot subtrees in responses.
func (n *Node) Attach(name string, child *Node) {
	e := n.own()
	if i := pos(e, name); i >= 0 {
		e.vals[i] = child
	} else {
		e.add(name, child)
	}
}

// Overlay bounds for MergeCOW. A chain deeper than cowMaxChain is collapsed
// into a single delta over the flat base (so lookups stay a handful of map
// probes); a delta holding more than max(cowFlattenMin, total/cowFlattenFrac)
// entries is materialized into a plain object (so a delta never dwarfs the
// base it shadows).
const (
	cowFlattenMin  = 16
	cowFlattenFrac = 8
	cowMaxChain    = 8
)

// compact enforces the overlay bounds on a freshly built MergeCOW node; n is
// owned by the caller at this point, so rewriting it in place is safe.
func (n *Node) compact() {
	// Every base was itself compacted, so the chain is at most one layer
	// over the bound.
	var layers [cowMaxChain + 1]*nodeExt
	depth, deltaTotal := 0, 0
	flat := n
	for ; flat.ext.base != nil; flat = flat.ext.base {
		layers[depth] = flat.ext
		depth++
		deltaTotal += len(flat.ext.vals)
	}
	if deltaTotal > cowFlattenMin && deltaTotal*cowFlattenFrac > len(n.ext.names) {
		n.flatten()
		return
	}
	if depth <= cowMaxChain {
		return
	}
	// Collapse the chain into one delta over the flat base: apply layers
	// oldest-first so newer entries shadow older ones.
	vals := make([]*Node, 0, deltaTotal)
	index := make(map[string]int, deltaTotal)
	for i := depth - 1; i >= 0; i-- {
		for name, j := range layers[i].index {
			if k, ok := index[name]; ok {
				vals[k] = layers[i].vals[j]
			} else {
				index[name] = len(vals)
				vals = append(vals, layers[i].vals[j])
			}
		}
	}
	n.ext.vals, n.ext.index, n.ext.base = vals, index, flat
}

// MergeCOW returns a tree with the same contents dst would have after
// dst.Merge(src), without mutating dst: everything untouched is shared by
// reference with dst, and subtrees unique to src are shared by reference with
// src. Along the paths src touches, a small object (no index) is copied — at
// most smallObject pointers — and a wide one becomes a thin overlay (a small
// delta map layered over dst's node via base). Both inputs must be treated
// as immutable afterwards. This is the copy-on-read primitive behind the
// SOMA service's merge snapshots: building generation N+1 costs O(paths
// touched by src), not O(fan-out of dst) — a 10k-child host node is never
// recopied just because one sample under it changed.
func MergeCOW(dst, src *Node) *Node {
	if src == nil || src.kind == KindEmpty {
		return dst
	}
	if dst == nil || dst.kind == KindEmpty {
		return src
	}
	if src.kind != KindObject || dst.kind != KindObject {
		// A leaf src overwrites whatever dst held; an object src merged onto
		// a leaf dst drops the leaf value (Merge's re-shape-on-assignment
		// semantics). Either way the result equals src, which can be shared.
		return src
	}
	if dst.NumChildren() == 0 {
		// Merging onto an empty object yields exactly src's contents.
		return src
	}
	if src.NumChildren() == 0 {
		return dst
	}
	// dst's names are shared with their capacity pinned: appending a new name
	// then reallocates instead of scribbling on the shared backing array.
	de := dst.ext
	e := &nodeExt{names: de.names[:len(de.names):len(de.names)]}
	out := &Node{kind: KindObject, ext: e}
	sn := src.ext.names
	if de.index == nil {
		// Small plain dst: an owned copy of its child pointers is cheaper
		// than a delta, and leaves no chain behind.
		e.vals = append(make([]*Node, 0, len(de.vals)+1), de.vals...)
		for i, name := range sn {
			if j := pos(de, name); j >= 0 {
				e.vals[j] = MergeCOW(de.vals[j], src.at(i))
			} else {
				e.add(name, src.at(i))
			}
		}
		return out
	}
	// Wide dst: the new layer's delta holds only the children src touches —
	// dst's own delta is layered behind it via the base chain, never recopied.
	e.base = dst
	e.vals = make([]*Node, 0, len(sn))
	e.index = make(map[string]int, len(sn))
	for i, name := range sn {
		sc := src.at(i)
		if existing := lookup(dst, name); existing != nil {
			sc = MergeCOW(existing, sc)
		} else {
			e.names = append(e.names, name)
		}
		e.index[name] = len(e.vals)
		e.vals = append(e.vals, sc)
	}
	out.compact()
	return out
}

// ChildrenSince returns, as an object in cur's order, the direct children of
// cur that old does not hold at the same pointer: the ones rewritten since
// old, and the new ones. ok is false — and no patch is built — unless both
// are objects, old's child names are a prefix of cur's, and at most limit
// children differ. Graft(old, patch) then holds what cur holds. The patch
// shares cur's children by reference.
//
// A pointer is a sound test of content only because trees are immutable once
// shared; it is a cheap one between generations of a MergeCOW snapshot, which
// keeps every untouched subtree at its pointer and only ever appends names.
func ChildrenSince(old, cur *Node, limit int) (patch *Node, ok bool) {
	if old.kind != KindObject || cur.kind != KindObject {
		return nil, false
	}
	on, cn := old.names(), cur.names()
	if len(on) > len(cn) || len(cn)-len(on) > limit {
		return nil, false
	}
	for i, name := range on {
		if cn[i] != name {
			return nil, false
		}
	}
	e := &nodeExt{}
	for i, name := range cn {
		c := cur.at(i)
		if i < len(on) && old.at(i) == c {
			continue
		}
		if len(e.names) == limit {
			return nil, false
		}
		e.names = append(e.names, name)
		e.vals = append(e.vals, c)
	}
	if len(e.names) == 0 {
		return &Node{kind: KindObject}, true
	}
	e.reindex()
	return &Node{kind: KindObject, ext: e}, true
}

// Graft returns an object holding dst's children with patch's direct
// children substituted by name: one dst already holds is replaced where it
// stands, a new one is appended in patch's order, and a name patch repeats
// resolves to its last child. That is what dst.Clone() followed by one Attach
// per patch child would hold, except that nothing is copied or mutated: every
// child is shared by reference with dst or patch, and a wide dst is layered
// under a MergeCOW overlay (bounded the same way) instead of being recopied.
// A dst that is not an object contributes no children. Both inputs must be
// treated as immutable afterwards.
func Graft(dst, patch *Node) *Node {
	pn := patch.names()
	if dst.kind != KindObject || dst.ext == nil || dst.ext.index == nil {
		// Small (or childless) dst: an owned copy of its child pointers.
		var dn []string
		var dv []*Node
		if dst.kind == KindObject && dst.ext != nil {
			dn, dv = dst.ext.names, dst.ext.vals
		}
		if len(dn)+len(pn) == 0 {
			return &Node{kind: KindObject}
		}
		e := &nodeExt{
			names: append(make([]string, 0, len(dn)+len(pn)), dn...),
			vals:  append(make([]*Node, 0, len(dn)+len(pn)), dv...),
		}
		for i, name := range pn {
			if j := pos(e, name); j >= 0 {
				e.vals[j] = patch.at(i)
			} else {
				e.add(name, patch.at(i))
			}
		}
		return &Node{kind: KindObject, ext: e}
	}
	if len(pn) == 0 {
		return dst
	}
	de := dst.ext
	e := &nodeExt{names: de.names[:len(de.names):len(de.names)], base: dst,
		vals: make([]*Node, 0, len(pn)), index: make(map[string]int, len(pn))}
	out := &Node{kind: KindObject, ext: e}
	for i, name := range pn {
		if j, seen := e.index[name]; seen {
			e.vals[j] = patch.at(i)
			continue
		}
		if lookup(dst, name) == nil {
			e.names = append(e.names, name)
		}
		e.index[name] = len(e.vals)
		e.vals = append(e.vals, patch.at(i))
	}
	out.compact()
	return out
}

// Walk visits every leaf in depth-first insertion order, calling fn with the
// '/'-joined path from n and the leaf node. Returning false from fn stops
// the walk early.
func (n *Node) Walk(fn func(path string, leaf *Node) bool) {
	n.walkBytes(func(p []byte, leaf *Node) bool { return fn(string(p), leaf) })
}

// walkBytes is Walk without the per-leaf string allocation: path aliases an
// internal buffer that is overwritten as the traversal advances, so callers
// must copy it if they retain it beyond the callback.
func (n *Node) walkBytes(fn func(path []byte, leaf *Node) bool) {
	if n.kind != KindObject {
		if n.kind != KindEmpty {
			fn(nil, n)
		}
		return
	}
	buf := make([]byte, 0, 64)
	n.walk(buf, fn)
}

func (n *Node) walk(buf []byte, fn func([]byte, *Node) bool) bool {
	for i, name := range n.names() {
		mark := len(buf)
		if mark > 0 {
			buf = append(buf, '/')
		}
		buf = append(buf, name...)
		c := n.at(i)
		if c.kind == KindObject {
			if !c.walk(buf, fn) {
				return false
			}
		} else if !fn(buf, c) {
			return false
		}
		buf = buf[:mark]
	}
	return true
}

// Leaves returns the paths of every leaf under n in insertion order.
func (n *Node) Leaves() []string {
	var out []string
	n.Walk(func(path string, _ *Node) bool {
		out = append(out, path)
		return true
	})
	return out
}

// NumLeaves counts the leaves under n — what Walk would visit — without
// building a single path.
func (n *Node) NumLeaves() int {
	if n.kind == KindEmpty {
		return 0
	}
	return n.countLeaves()
}

func (n *Node) countLeaves() int {
	if n.kind != KindObject {
		return 1
	}
	c := 0
	for i := range n.names() {
		c += n.at(i).countLeaves()
	}
	return c
}

// Equal reports whether two subtrees hold the same structure and values.
// Child order is ignored: two objects are equal when they have the same
// name→subtree mapping.
func (n *Node) Equal(other *Node) bool {
	if n == nil || other == nil {
		return n == other
	}
	if n.kind != other.kind {
		return false
	}
	switch n.kind {
	case KindObject:
		names, onames := n.names(), other.names()
		if len(names) != len(onames) {
			return false
		}
		for i, name := range names {
			// Same insertion order on both sides is the common case and
			// needs no lookup.
			var oc *Node
			if onames[i] == name {
				oc = other.at(i)
			} else if oc = lookup(other, name); oc == nil {
				return false
			}
			if !n.at(i).Equal(oc) {
				return false
			}
		}
		return true
	case KindFloat:
		return n.float() == other.float()
	case KindIntArray:
		return slices.Equal(n.ext.ia, other.ext.ia)
	case KindFloatArray:
		return slices.Equal(n.ext.fa, other.ext.fa)
	default:
		return n.num == other.num && n.s == other.s
	}
}

// Diff returns the leaf paths at which n and other disagree (missing on
// either side or different values), sorted lexically. Useful in tests and in
// the service's deduplication path.
func (n *Node) Diff(other *Node) []string {
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

// Format renders the subtree as an indented, YAML-like listing matching the
// style of the paper's Listings 1 and 2. Intended for logs and examples.
func (n *Node) Format() string {
	var sb strings.Builder
	n.format(&sb, 0, "")
	return sb.String()
}

func (n *Node) format(sb *strings.Builder, depth int, name string) {
	indent := strings.Repeat("  ", depth)
	if name != "" {
		sb.WriteString(indent)
		sb.WriteString(name)
		sb.WriteString(":")
	}
	switch n.kind {
	case KindObject:
		if name != "" {
			sb.WriteString("\n")
		}
		for i, cn := range n.names() {
			n.at(i).format(sb, depth+1, cn)
		}
	case KindEmpty:
		sb.WriteString(" ~\n")
	default:
		fmt.Fprintf(sb, " %v\n", n.Value())
	}
}
