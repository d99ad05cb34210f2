package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/cluster"
	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// wireTypes is every request and answer type the control plane carries
// through conduit.Marshal.
var wireTypes = []reflect.Type{
	reflect.TypeFor[nsReq](), reflect.TypeFor[traceReq](), reflect.TypeFor[alertList](),
	reflect.TypeFor[ringAnswer](), reflect.TypeFor[AlertRule](), reflect.TypeFor[HealthReport](),
	reflect.TypeFor[map[Namespace]InstanceStats](), reflect.TypeFor[[]SelectMatch](),
	reflect.TypeFor[Profile](), reflect.TypeFor[[]string](), reflect.TypeFor[telemetry.Snapshot](),
	reflect.TypeFor[telemetry.Trace](), reflect.TypeFor[[]telemetry.TraceSummary](),
	reflect.TypeFor[cluster.Member](),
}

// fillRandom sets v to a random value of its type, as the codec carries it:
// fields it skips stay zero, empty slices and maps are nil, and a Time is
// zero or whole Unix nanoseconds.
func fillRandom(r *rand.Rand, v reflect.Value) {
	switch t := v.Type(); {
	case t == reflect.TypeFor[time.Time]():
		if r.Intn(4) > 0 {
			v.Set(reflect.ValueOf(time.Unix(0, r.Int63())))
		}
	case t.Kind() == reflect.String:
		v.SetString([]string{"", "hardware", "a/b", "PROC/*/CPU Util", "\x00é"}[r.Intn(5)])
	case t.Kind() == reflect.Bool:
		v.SetBool(r.Intn(2) == 1)
	case t.Kind() >= reflect.Int && t.Kind() <= reflect.Int64:
		v.SetInt(int64(r.Uint64()))
	case t.Kind() >= reflect.Uint && t.Kind() <= reflect.Uint64:
		v.SetUint(r.Uint64())
	case t.Kind() == reflect.Float64:
		v.SetFloat(r.NormFloat64() * 1e6)
	case t.Kind() == reflect.Slice:
		if n := r.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(t, n, n))
			for i := range n {
				fillRandom(r, v.Index(i))
			}
		}
	case t.Kind() == reflect.Map:
		if n := r.Intn(4); n > 0 {
			v.Set(reflect.MakeMap(t))
			for range n {
				key, elem := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
				fillRandom(r, key)
				fillRandom(r, elem)
				v.SetMapIndex(key, elem)
			}
		}
	case t.Kind() == reflect.Struct:
		for i := range t.NumField() {
			if f := t.Field(i); f.IsExported() && f.Tag.Get("conduit") != "-" {
				fillRandom(r, v.Field(i))
			}
		}
	default:
		panic("fillRandom: no generator for " + t.String())
	}
}

// TestWireTypesRoundTrip is the codec's property over every wire type, seeded
// random values through Marshal, the wire and Unmarshal: what comes back is
// what went out.
func TestWireTypesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for _, typ := range wireTypes {
		for i := 0; i < 200; i++ {
			want := reflect.New(typ)
			fillRandom(r, want.Elem())
			tree, err := conduit.DecodeBinary(conduit.Marshal(want.Interface()).EncodeBinary())
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(typ)
			if err := conduit.Unmarshal(tree, got.Interface()); err != nil {
				t.Fatalf("%s: %v", typ, err)
			}
			if !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Fatalf("%s round trip:\n got %+v\nwant %+v", typ, got.Elem(), want.Elem())
			}
		}
	}
}

// TestControlPlaneAnswersAreCanonical: the same state answers soma.stats and
// soma.telemetry with the same bytes, however their maps iterate.
func TestControlPlaneAnswersAreCanonical(t *testing.T) {
	svc := NewService(ServiceConfig{})
	defer svc.Close()
	n := conduit.NewNode()
	n.SetFloat("PROC/cn01/CPU Util", 42)
	if err := svc.Publish(NSHardware, n, 0); err != nil {
		t.Fatal(err)
	}
	stats := func() []byte {
		frame, err := svc.handleStats(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	if a, b := stats(), stats(); !bytes.Equal(a, b) {
		t.Error("two soma.stats answers of one state differ")
	}
	snap := telemetry.Default().Snapshot()
	if len(snap.Counters) < 2 || len(snap.Histograms) < 2 {
		t.Fatalf("snapshot too small to tell orders apart: %d counters, %d histograms", len(snap.Counters), len(snap.Histograms))
	}
	first := conduit.Marshal(snap).EncodeBinary()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(conduit.Marshal(snap).EncodeBinary(), first) {
			t.Fatal("two soma.telemetry answers of one snapshot differ")
		}
	}
}
