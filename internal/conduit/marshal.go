package conduit

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Marshal and Unmarshal are the control-plane codec: an RPC request or answer
// is declared once, as a Go type, and mapped onto a tree by reflection rather
// than written out field by field on both ends.
//
//   - A struct field is the child its `conduit:"name"` tag names, or else its
//     field name; `conduit:"-"` and unexported fields are skipped.
//   - Strings (named string kinds too), bools, ints, uints (a uint64 is
//     bit-cast into the int64 leaf), float64 and time.Time (Unix ns, the zero
//     Time as 0) are scalar leaves; []float64 and []int64 are array leaves and
//     []byte a string leaf.
//   - Any other slice is an object of AppendIndexKey-named children, read back
//     in child order. A map keyed by a string kind is an object with a child
//     per key, written in sorted key order, so one value encodes to one frame.
//   - A nil pointer, an empty slice and an empty map are absent.
//
// Unmarshal leaves a field as it is where the tree has no child for it (or an
// empty one), ignores children no field names, and fails, naming the path, on
// a node whose kind the field cannot hold. Any tree DecodeBinary accepts is
// safe input: it never panics. A type the codec cannot carry (a channel, an
// interface, a map with other keys) is a programming error, and panics.

// Marshal returns v as a tree.
func Marshal(v any) *Node {
	n := &Node{}
	if rv := reflect.ValueOf(v); rv.IsValid() {
		encode(rv, n)
	}
	return n
}

// Unmarshal fills the value v points to from n.
func Unmarshal(n *Node, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("conduit: Unmarshal needs a non-nil pointer, not %T", v)
	}
	return decode(n, rv)
}

// AppendIndexKey appends i zero-padded to six digits: the child name of the
// i-th entry of a list on the wire, so that names sort in list order.
func AppendIndexKey(dst []byte, i int) []byte {
	var tmp [20]byte
	num := strconv.AppendInt(tmp[:0], int64(i), 10)
	for pad := 6 - len(num); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, num...)
}

// pathError is an Unmarshal failure; its path grows as the error unwinds.
type pathError struct{ path, msg string }

func (e *pathError) Error() string {
	return "conduit: unmarshal " + cmp.Or(e.path, "(root)") + ": " + e.msg
}

// under prefixes the path of an Unmarshal failure with the child it was in.
func under(name string, err error) error {
	if e, ok := err.(*pathError); ok {
		e.path = strings.TrimSuffix(name+"/"+e.path, "/")
	}
	return err
}

// field is one struct field the codec carries: its index and child name.
type field struct {
	index int
	name  string
}

var fieldPlans sync.Map // reflect.Type → []field

// fieldsOf returns, once per struct type, the fields the codec carries.
func fieldsOf(t reflect.Type) []field {
	if fs, ok := fieldPlans.Load(t); ok {
		return fs.([]field)
	}
	var fs []field
	for i := range t.NumField() {
		f := t.Field(i)
		if name := cmp.Or(f.Tag.Get("conduit"), f.Name); f.IsExported() && name != "-" {
			fs = append(fs, field{i, name})
		}
	}
	fieldPlans.Store(t, fs)
	return fs
}

var (
	timeType   = reflect.TypeFor[time.Time]()
	bytesType  = reflect.TypeFor[[]byte]()
	floatsType = reflect.TypeFor[[]float64]()
	intsType   = reflect.TypeFor[[]int64]()
)

// kindOf is the node kind a value of type t travels as.
func kindOf(t reflect.Type) Kind {
	switch k := t.Kind(); {
	case t == timeType:
		return KindInt
	case t == bytesType, k == reflect.String:
		return KindString
	case t == floatsType:
		return KindFloatArray
	case t == intsType:
		return KindIntArray
	case k == reflect.Bool:
		return KindBool
	case k == reflect.Float64:
		return KindFloat
	case k >= reflect.Int && k <= reflect.Uint64:
		return KindInt
	case k == reflect.Pointer:
		return kindOf(t.Elem())
	case k == reflect.Slice, k == reflect.Struct, k == reflect.Map && t.Key().Kind() == reflect.String:
		return KindObject
	}
	panic(fmt.Sprintf("conduit: cannot marshal %s", t))
}

// object makes the empty node n an object with room for size children.
func (n *Node) object(size int) *nodeExt {
	n.kind, n.ext = KindObject, &nodeExt{names: make([]string, 0, size), vals: make([]*Node, 0, size)}
	return n.ext
}

// encode writes v into the empty node n, leaving it empty if v is absent.
func encode(v reflect.Value, n *Node) {
	t := v.Type()
	switch k := kindOf(t); {
	case t.Kind() == reflect.Pointer:
		if !v.IsNil() {
			encode(v.Elem(), n)
		}
	case t == timeType:
		var ns int64
		if tm := v.Interface().(time.Time); !tm.IsZero() {
			ns = tm.UnixNano()
		}
		n.setScalar(KindInt, uint64(ns), "")
	case t == bytesType:
		if v.Len() > 0 {
			n.setScalar(KindString, 0, string(v.Bytes()))
		}
	case k == KindString:
		n.setScalar(KindString, 0, v.String())
	case k == KindBool:
		n.setScalar(KindBool, boolBits(v.Bool()), "")
	case k == KindFloat:
		n.setScalar(KindFloat, math.Float64bits(v.Float()), "")
	case k == KindInt && v.CanInt():
		n.setScalar(KindInt, uint64(v.Int()), "")
	case k == KindInt:
		n.setScalar(KindInt, v.Uint(), "")
	case k == KindFloatArray || k == KindIntArray:
		if v.Len() > 0 {
			ia, _ := v.Interface().([]int64)
			fa, _ := v.Interface().([]float64)
			n.setArray(k, slices.Clone(ia), slices.Clone(fa))
		}
	case t.Kind() == reflect.Struct:
		e := n.object(t.NumField())
		for _, f := range fieldsOf(t) {
			c := &Node{}
			if encode(v.Field(f.index), c); c.kind != KindEmpty {
				e.add(f.name, c)
			}
		}
	case v.Len() > 0: // a slice or a map: every element keeps its place
		var keys []reflect.Value
		if t.Kind() == reflect.Map {
			keys = v.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		}
		e := n.object(v.Len())
		for i := range v.Len() {
			c := &Node{}
			if keys == nil {
				encode(v.Index(i), c)
				e.add(string(AppendIndexKey(nil, i)), c)
			} else {
				encode(v.MapIndex(keys[i]), c)
				e.add(keys[i].String(), c)
			}
		}
	}
}

// decode fills v from n; a missing or empty n leaves v as it is.
func decode(n *Node, v reflect.Value) error {
	if n == nil || n.kind == KindEmpty {
		return nil
	}
	t := v.Type()
	if n.kind != kindOf(t) {
		return &pathError{msg: fmt.Sprintf("%s node into %s", n.kind, t)}
	}
	switch k := t.Kind(); {
	case t == timeType:
		var tm time.Time
		if n.num != 0 {
			tm = time.Unix(0, int64(n.num))
		}
		v.Set(reflect.ValueOf(tm))
	case t == bytesType:
		v.SetBytes(append([]byte(nil), n.s...))
	case t == floatsType, t == intsType:
		v.Set(reflect.AppendSlice(reflect.Zero(t), reflect.ValueOf(n.Value())))
	case k == reflect.String:
		v.SetString(n.s)
	case k == reflect.Bool:
		v.SetBool(n.num != 0)
	case k == reflect.Float64:
		v.SetFloat(n.float())
	case v.CanInt() && !v.OverflowInt(int64(n.num)):
		v.SetInt(int64(n.num))
	case v.CanUint() && !v.OverflowUint(n.num):
		v.SetUint(n.num)
	case k == reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(t.Elem()))
		}
		return decode(n, v.Elem())
	case k == reflect.Struct:
		for _, f := range fieldsOf(t) {
			if err := under(f.name, decode(n.Child(f.name), v.Field(f.index))); err != nil {
				return err
			}
		}
	case k == reflect.Slice:
		v.Set(reflect.MakeSlice(t, n.NumChildren(), n.NumChildren()))
		for i, name := range n.names() {
			if err := under(name, decode(n.at(i), v.Index(i))); err != nil {
				return err
			}
		}
	case k == reflect.Map:
		v.Set(reflect.MakeMapWithSize(t, n.NumChildren()))
		for i, name := range n.names() {
			elem := reflect.New(t.Elem()).Elem()
			if err := under(name, decode(n.at(i), elem)); err != nil {
				return err
			}
			v.SetMapIndex(reflect.ValueOf(name).Convert(t.Key()), elem)
		}
	default: // an int leaf its field cannot hold
		return &pathError{msg: fmt.Sprintf("%d overflows %s", int64(n.num), t)}
	}
	return nil
}
