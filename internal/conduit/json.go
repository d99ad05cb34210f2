package conduit

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendJSON appends the subtree as JSON to dst and returns the extended
// slice. The bytes are the ones encoding/json writes for the tree's natural
// Go shape — an object as a map[string]interface{}, so keys in byte order, a
// leaf as its Value() — written directly, with no map, no boxing and no
// reflection. The one difference is a non-finite float, which encoding/json
// refuses: it is written null, as JSON.stringify writes it, in a scalar and
// in an array alike, so one NaN leaf cannot make a whole tree unrenderable.
// A nil or empty node is null, an object with no children {}, a nil array
// null and an empty one [].
func (n *Node) AppendJSON(dst []byte) []byte {
	w := jsonWriter{buf: dst}
	w.node(n)
	return w.buf
}

// MarshalJSON renders the subtree as plain JSON (objects/scalars/arrays)
// through AppendJSON. Child insertion order is not preserved; use
// EncodeBinary when order matters.
func (n *Node) MarshalJSON() ([]byte, error) {
	return n.AppendJSON(nil), nil
}

// jsonWriter is AppendJSON's state: the output, and one scratch slice for the
// sorted child positions of the objects on the current path — each object
// sorts its own segment past its parent's and truncates it when done.
type jsonWriter struct {
	buf   []byte
	order []int32
}

func (w *jsonWriter) node(n *Node) {
	if n == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	switch n.kind {
	case KindObject:
		w.object(n)
	case KindInt:
		w.buf = strconv.AppendInt(w.buf, int64(n.num), 10)
	case KindFloat:
		w.buf = AppendJSONFloat(w.buf, n.float())
	case KindString:
		w.buf = AppendJSONString(w.buf, n.s)
	case KindBool:
		w.buf = strconv.AppendBool(w.buf, n.num != 0)
	case KindIntArray:
		if n.ext.ia == nil {
			w.buf = append(w.buf, "null"...)
			return
		}
		w.buf = append(w.buf, '[')
		for i, v := range n.ext.ia {
			if i > 0 {
				w.buf = append(w.buf, ',')
			}
			w.buf = strconv.AppendInt(w.buf, v, 10)
		}
		w.buf = append(w.buf, ']')
	case KindFloatArray:
		if n.ext.fa == nil {
			w.buf = append(w.buf, "null"...)
			return
		}
		w.buf = append(w.buf, '[')
		for i, v := range n.ext.fa {
			if i > 0 {
				w.buf = append(w.buf, ',')
			}
			w.buf = AppendJSONFloat(w.buf, v)
		}
		w.buf = append(w.buf, ']')
	default:
		w.buf = append(w.buf, "null"...)
	}
}

func (w *jsonWriter) object(n *Node) {
	names := n.names()
	base := len(w.order)
	w.order = appendOrder(w.order, names)
	w.buf = append(w.buf, '{')
	for k := range names {
		i := w.order[base+k] // re-read: a child's object may have grown order
		if k > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = AppendJSONString(w.buf, names[i])
		w.buf = append(w.buf, ':')
		w.node(n.at(int(i)))
	}
	w.buf = append(w.buf, '}')
	w.order = w.order[:base]
}

// appendOrder appends the positions of names to order, sorted by name in
// byte order — encoding/json's order for map keys. Names already ascending,
// as zero-padded ids and timestamps appended in order are, skip the sort.
func appendOrder(order []int32, names []string) []int32 {
	base := len(order)
	sorted := true
	for i := range names {
		order = append(order, int32(i))
		if i > 0 && names[i] < names[i-1] {
			sorted = false
		}
	}
	if !sorted {
		slices.SortFunc(order[base:], func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	}
	return order
}

// AppendJSONFloat appends f as encoding/json writes a float64 — the shortest
// representation that reads back exactly, in 'f' notation, or 'e' notation
// below 1e-6 and from 1e21 up with a one-digit exponent written without its
// leading zero — and a non-finite f as null.
func AppendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(dst)
		if dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string the way encoding/json writes
// one: HTML-safe (<, > and & as \u003c, \u003e, \u0026), \b \f \n \r \t by
// name and every other control byte as \u00XX, each byte of invalid UTF-8 as
// \ufffd, and U+2028 and U+2029 escaped.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// JSONDoc is a JSON document RenderJSON wrote: its bytes, and where in them
// the value of each direct child of the rendered object sits, so a render of
// a later version of the tree can copy every child that did not change. A
// doc is immutable once returned; any number of goroutines may read it or
// render against it.
type JSONDoc struct {
	buf []byte
	// names is the rendered object's names() (shared, never copied) and
	// order their positions in byte order; kids[k] is the child at
	// names[order[k]].
	names []string
	order []int32
	kids  []jsonChild

	reused, rendered int
}

// jsonChild is where one direct child's value sits in a doc's bytes. Holding
// the node keeps it alive, so no other node can come to live at its address
// while the doc is held: a pointer match against it is a content match.
type jsonChild struct {
	node       *Node
	start, end int
}

// Bytes returns the document. The caller must not modify it.
func (d *JSONDoc) Bytes() []byte { return d.buf }

// Children reports how many of the rendered object's direct children were
// copied from the previous doc and how many were rendered afresh.
func (d *JSONDoc) Children() (reused, rendered int) { return d.reused, d.rendered }

// RenderJSON returns prefix + n.AppendJSON + suffix as a doc. A direct child
// of n that prev rendered under the same name at the same pointer is copied
// from prev's bytes instead of being rendered again; with prev nil every
// child is rendered. A pointer is a sound test of content: shared trees are
// immutable, and Graft and MergeCOW keep every untouched child at its
// pointer.
func RenderJSON(prefix []byte, n *Node, suffix []byte, prev *JSONDoc) *JSONDoc {
	if prev == nil {
		prev = &JSONDoc{}
	}
	d := &JSONDoc{}
	size := len(prefix) + len(suffix) + len(prev.buf) + len(prev.buf)/16
	w := jsonWriter{buf: append(make([]byte, 0, size), prefix...)}
	if n == nil || n.kind != KindObject || n.NumChildren() == 0 {
		w.node(n)
		d.buf = append(w.buf, suffix...)
		return d
	}
	d.names = n.names()
	if slices.Equal(d.names, prev.names) {
		d.order = prev.order
	} else {
		d.order = appendOrder(make([]int32, 0, len(d.names)), d.names)
	}
	d.kids = make([]jsonChild, len(d.names))
	w.buf = append(w.buf, '{')
	j := 0 // prev's children are in the same byte order: one merge walk finds each name
	for k, i := range d.order {
		name, c := d.names[i], n.at(int(i))
		if k > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = AppendJSONString(w.buf, name)
		w.buf = append(w.buf, ':')
		for j < len(prev.kids) && prev.names[prev.order[j]] < name {
			j++
		}
		start := len(w.buf)
		if j < len(prev.kids) && prev.kids[j].node == c && prev.names[prev.order[j]] == name {
			pc := prev.kids[j]
			w.buf = append(w.buf, prev.buf[pc.start:pc.end]...)
			d.reused++
		} else {
			w.node(c)
			d.rendered++
		}
		d.kids[k] = jsonChild{c, start, len(w.buf)}
	}
	w.buf = append(w.buf, '}')
	d.buf = append(w.buf, suffix...)
	return d
}
