package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// The rollup fold (seriesStore.ingest) against a per-leaf oracle, and its
// benchmark in the monitors shape.

// foldVocab is the segment vocabulary FuzzRollupFold spells paths with:
// metric names, timestamps of several magnitudes, numeric leaf names, the
// numeric segments that are not plausible sample times ("-5", "1e30") or
// parse in unusual forms (".5", "0x1p-2"), an empty name, and two segments
// longer than the timestamp memo — one a plausible time, one not.
var foldVocab = []string{
	"PROC", "cn01", "cn02", "cpu", "c03", "user", "CPU Util",
	"12.5", "13.250000", "1000.100000", "1000.1", "0", "7",
	"-5", "1e30", ".5", "0x1p-2", "1e15", "NaN", "inf", "",
	"0000000000000000000000000000000012.5", "123456789012345678901234567890.125",
}

// foldValues are the float leaf values: ordinary ones, a hot one, and the
// non-finite ones the fold skips.
var foldValues = []float64{1.5, -2, 95, 0, 42.25, math.NaN(), math.Inf(1), math.Inf(-1)}

// foldRules are the rules a FuzzRollupFold run may arm, as a bit mask.
var foldRules = []AlertRule{
	{Name: "cpu-user", NS: NSHardware, Pattern: "**/cpu/*/user", Op: ">"},
	{Name: "util", NS: NSHardware, Pattern: "PROC/*/CPU Util", Op: ">"},
	{Name: "all", NS: NSHardware, Pattern: "**", Op: ">"},
	{Name: "wf-all", NS: NSWorkflow, Pattern: "**", Op: ">"},
	{Name: "seven", NS: NSHardware, Pattern: "*/7", Op: ">"},
	{Name: "cn01-user", NS: NSHardware, Pattern: "cn01/**/user", Op: ">"},
}

type foldLeaf struct {
	path string
	v    float64
}

// foldTimes are the timestamp segments a replayed frame is re-stamped with.
var foldTimes = []string{"12.5", "13.250000", "1000.100000", "14.75", "0", "7"}

// foldNode is one child of a generated tree object: a numeric leaf (kind
// KindInt or KindFloat, with its value), a string leaf, or an object.
type foldNode struct {
	name string
	kind conduit.Kind
	v    float64
	kids []foldNode
}

// foldGen spells tree frames from fuzzer bytes straight onto the wire —
// sibling names may repeat, which no conduit.Node can hold — and records each
// frame's numeric leaves in wire order, paths joined as conduit's walks join
// them. A frame is fresh, or the previous frame's structure again with new
// values and a new timestamp segment (replay), optionally with one numeric
// leaf renamed (rename) — the repeats the shape memo answers, or must not.
type foldGen struct {
	data   []byte
	prev   []foldNode
	frame  []byte
	leaves []foldLeaf
}

func (g *foldGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

// tree spells the next frame: fresh, unless replay or rename asks to repeat
// the previous one (rename wins when both do).
func (g *foldGen) tree(replay, rename bool) []byte {
	var kids []foldNode
	switch {
	case g.prev != nil && rename:
		leaf, name := g.next(), foldVocab[int(g.next())%len(foldVocab)]
		kids = g.replay(g.prev, foldTimes[int(g.next())%len(foldTimes)])
		if n := countNumeric(kids); n > 0 {
			i := 0 // the first leaf keeps its name, so the first key stays when it can
			if n > 1 {
				i = 1 + int(leaf)%(n-1)
			}
			renameNumeric(kids, &i, name)
		}
	case g.prev != nil && replay:
		kids = g.replay(g.prev, foldTimes[int(g.next())%len(foldTimes)])
	default:
		kids = g.object(0)
	}
	g.prev = kids
	g.frame = append([]byte{'C', 'D', 'T', 1}, byte(conduit.KindObject))
	g.leaves = g.leaves[:0]
	g.emit(kids, "")
	return g.frame
}

func (g *foldGen) object(depth int) []foldNode {
	kids := make([]foldNode, g.next()%5)
	for i := range kids {
		k := &kids[i]
		k.name = foldVocab[int(g.next())%len(foldVocab)]
		switch b := g.next(); {
		case b%4 == 0 && depth < 6:
			k.kind, k.kids = conduit.KindObject, g.object(depth+1)
		case b%4 == 1:
			k.kind, k.v = conduit.KindInt, float64(int8(g.next()))
		case b%4 == 2:
			k.kind, k.v = conduit.KindFloat, foldValues[int(g.next())%len(foldValues)]
		default:
			k.kind = conduit.KindString
		}
	}
	return kids
}

// replay copies kids with new values, every plausible sample-time name
// replaced by ts.
func (g *foldGen) replay(kids []foldNode, ts string) []foldNode {
	out := make([]foldNode, len(kids))
	for i, k := range kids {
		if v, err := strconv.ParseFloat(k.name, 64); err == nil && v >= 0 && v <= maxSeriesTime {
			k.name = ts
		}
		switch k.kind {
		case conduit.KindObject:
			k.kids = g.replay(k.kids, ts)
		case conduit.KindInt:
			k.v = float64(int8(g.next()))
		case conduit.KindFloat:
			k.v = foldValues[int(g.next())%len(foldValues)]
		}
		out[i] = k
	}
	return out
}

func countNumeric(kids []foldNode) (n int) {
	for _, k := range kids {
		switch k.kind {
		case conduit.KindObject:
			n += countNumeric(k.kids)
		case conduit.KindInt, conduit.KindFloat:
			n++
		}
	}
	return n
}

// renameNumeric renames the numeric leaf *i counts down to, in wire order.
func renameNumeric(kids []foldNode, i *int, name string) bool {
	for j := range kids {
		switch k := &kids[j]; k.kind {
		case conduit.KindObject:
			if renameNumeric(k.kids, i, name) {
				return true
			}
		case conduit.KindInt, conduit.KindFloat:
			if *i == 0 {
				k.name = name
				return true
			}
			*i--
		}
	}
	return false
}

func (g *foldGen) emit(kids []foldNode, path string) {
	g.frame = binary.AppendUvarint(g.frame, uint64(len(kids)))
	for _, k := range kids {
		g.frame = binary.AppendUvarint(g.frame, uint64(len(k.name)))
		g.frame = append(g.frame, k.name...)
		child := k.name
		if path != "" {
			child = path + "/" + k.name
		}
		switch k.kind {
		case conduit.KindObject:
			g.frame = append(g.frame, byte(conduit.KindObject))
			g.emit(k.kids, child)
		case conduit.KindInt:
			g.frame = binary.AppendVarint(append(g.frame, byte(conduit.KindInt)), int64(k.v))
			g.leaves = append(g.leaves, foldLeaf{child, k.v})
		case conduit.KindFloat:
			g.frame = binary.LittleEndian.AppendUint64(append(g.frame, byte(conduit.KindFloat)), math.Float64bits(k.v))
			g.leaves = append(g.leaves, foldLeaf{child, k.v})
		default:
			g.frame = append(g.frame, byte(conduit.KindString), 2, 'o', 'k')
		}
	}
}

// FuzzRollupFold is the fold's differential: runs of fuzzer-spelled frames
// are folded into one store by seriesStore.ingest, and leaf by leaf into
// another — splitSeriesPath, then observe, with matchSeriesKey deciding the
// watched set. Both stores are capped small so drops happen; between runs
// the namespace, the armed rule set and a reset vary, and a run's frames may
// repeat the previous frame's shape (0x04) or rename one of its leaves (0x08),
// which the fold answers from its shape memo or must not. After every run the
// two must hold the same series, report the same watched keys in the same
// order with the same newest sample time, and drop the same samples.
func FuzzRollupFold(f *testing.F) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(256))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{4, 0x03, 1, 3, 0, 0, 3, 0, 10, 0, 4, 3, 0, 2, 2, 5, 2, 2})
	// One leaf, "cn01" = 1.5, folded under a changing rule set: everything
	// armed, then nothing, then a workflow run under the workflow "**" rule,
	// a hardware run under the same set, and a reset.
	f.Add([]byte{4,
		0x20, 0x04, 1, 1, 2, 0,
		0x20, 0x00, 1, 1, 2, 0,
		0x30, 0x08, 1, 1, 2, 0,
		0x00, 1, 1, 2, 0,
		0x40, 1, 1, 2, 0})
	// A frame of three samples: PROC/cn01/12.5/{cpu,user,CPU Util}. A replay
	// takes a timestamp byte, then one value byte per leaf; a rename takes a
	// leaf byte and a name byte first.
	shape := []byte{1, 0, 0, 1, 1, 0, 1, 7, 0, 3, 3, 2, 0, 5, 2, 1, 6, 2, 4}
	seed := func(maxSeries byte, runs ...[]byte) []byte {
		out := []byte{maxSeries}
		for _, r := range runs {
			out = append(out, r...)
		}
		return out
	}
	// Across the series cap (4): the shape is recorded; a rename makes a
	// fourth series and re-records it; a second rename crosses the cap, so
	// that shape is never recorded and its replay misses again; after a
	// reset the shape fits, is recorded and hit.
	f.Add(seed(3, append([]byte{0x00}, shape...),
		[]byte{0x08, 0, 2, 1, 2, 3, 4},
		[]byte{0x08, 1, 4, 2, 0, 1, 2},
		[]byte{0x04, 3, 0, 0, 0},
		[]byte{0x44, 0, 1, 2, 3},
		[]byte{0x04, 1, 4, 4, 4}))
	// The rule set changes between repeats of one shape: "util", then
	// "cpu-user", then "all", then the workflow "**" on a workflow run.
	f.Add(seed(11, append([]byte{0x20, 0x02}, shape...),
		[]byte{0x24, 0x01, 2, 0, 1, 2},
		[]byte{0x24, 0x04, 3, 1, 1, 1},
		[]byte{0x34, 0x08, 0, 2, 2, 2}))
	// A reset between repeats, then a rename after a reset, then a run of
	// three replays.
	f.Add(seed(11, append([]byte{0x00}, shape...),
		[]byte{0x04, 1, 0, 0, 0},
		[]byte{0x44, 2, 1, 1, 1},
		[]byte{0x48, 0, 5, 0, 3, 3, 3},
		[]byte{0x06, 0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &foldGen{data: data}
		maxSeries := 1 + int(g.next()%12)
		fold, oracle := newSeriesStore(maxSeries), newSeriesStore(maxSeries)
		e := newAlertEngine(nil)
		for r := 0; len(g.data) > 0 && r < 16; r++ {
			hdr := g.next()
			ns := NSHardware
			if hdr&0x10 != 0 {
				ns = NSWorkflow
			}
			if hdr&0x20 != 0 {
				mask := g.next()
				for i, rule := range foldRules {
					if mask&(1<<i) == 0 {
						e.remove(rule.Name)
					} else if err := e.set(rule); err != nil {
						t.Fatal(err)
					}
				}
			}
			if hdr&0x40 != 0 {
				fold.reset()
				oracle.reset()
			}
			arrival := float64(r * 3)
			run := make([]pub, 1+int(hdr&3)%3)
			var leaves []foldLeaf
			for i := range run {
				run[i] = pub{ns: ns, enc: g.tree(hdr&0x04 != 0, hdr&0x08 != 0)}
				leaves = append(leaves, g.leaves...)
			}

			dropped := telSeriesDropped.Value()
			watched, maxT := fold.ingest(arrival, run, e.armed.Load().of(ns), nil)
			foldDropped := telSeriesDropped.Value() - dropped

			dropped = telSeriesDropped.Value()
			rules, _ := e.list()
			var wantKeys []string
			wantT := arrival
			for _, l := range leaves {
				if math.IsNaN(l.v) || math.IsInf(l.v, 0) {
					continue
				}
				key, ts := splitSeriesPath(l.path, arrival)
				if key == "" {
					continue
				}
				wantT = math.Max(wantT, ts)
				if !oracle.observe([]byte(key), ts, l.v) {
					continue
				}
				for _, rule := range rules {
					if rule.NS == ns && matchSeriesKey(rule.Pattern, key) {
						wantKeys = append(wantKeys, key)
						break
					}
				}
			}
			oracleDropped := telSeriesDropped.Value() - dropped

			var gotKeys []string
			for _, se := range watched {
				gotKeys = append(gotKeys, se.key)
			}
			if !reflect.DeepEqual(gotKeys, wantKeys) {
				t.Fatalf("run %d: watched %q, oracle %q", r, gotKeys, wantKeys)
			}
			if maxT != wantT {
				t.Fatalf("run %d: newest sample time %g, oracle %g", r, maxT, wantT)
			}
			if foldDropped != oracleDropped {
				t.Fatalf("run %d: fold dropped %d samples, oracle %d", r, foldDropped, oracleDropped)
			}
			if got, want := seriesDump(fold), seriesDump(oracle); !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d: fold holds\n%v\noracle holds\n%v", r, got, want)
			}
			if n, b := fold.occupancy(); n != len(oracle.m) || b != oracle.bytes {
				t.Fatalf("run %d: fold occupancy %d series, %d B; oracle %d, %d B", r, n, b, len(oracle.m), oracle.bytes)
			}
		}
	})
}

// foldLeafByLeaf folds enc into st as FuzzRollupFold's oracle does: each
// numeric leaf split and observed on its own.
func foldLeafByLeaf(t *testing.T, st *seriesStore, arrival float64, enc []byte) {
	t.Helper()
	_, err := conduit.WalkNumericLeaves(enc, nil, func(path []byte, v float64) {
		if key, ts := splitSeriesPath(string(path), arrival); key != "" && !math.IsNaN(v) && !math.IsInf(v, 0) {
			st.observe([]byte(key), ts, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShapeMemoEvictsWithinItsBound(t *testing.T) {
	// 64 publish shapes of 64 long-named samples each, about 1.3 MiB of
	// shapes against the 1 MiB bound, published round robin: shapes are
	// evicted and recorded again, and the store folds exactly what a
	// leaf-by-leaf store folds.
	const nodes, leaves = 64, 64
	pad := strings.Repeat("x", 280)
	frame := func(node int, ts float64) []byte {
		n := conduit.NewNode()
		for l := 0; l < leaves; l++ {
			n.SetFloat(fmt.Sprintf("PROC/cn%03d/%.1f/%s%02d", node, ts, pad, l), float64(node*leaves+l))
		}
		return n.EncodeBinary()
	}
	entries, bytes, evictions := telShapeEntries.Value(), telShapeBytes.Value(), telShapeEvictions.Value()
	st, oracle := newSeriesStore(0), newSeriesStore(0)
	run := []pub{{ns: NSHardware}}
	for round := 0; round < 3; round++ {
		for node := 0; node < nodes; node++ {
			ts := float64(round*nodes+node) / 10
			run[0].enc = frame(node, ts)
			st.ingest(100, run, nil, nil)
			foldLeafByLeaf(t, oracle, 100, run[0].enc)
			if st.shapeBytes > maxShapeBytes {
				t.Fatalf("round %d node %d: shape memo holds %d B, bound %d", round, node, st.shapeBytes, maxShapeBytes)
			}
		}
	}
	var sum int64
	for first, sh := range st.shapes {
		sum += sh.bytes(len(first))
	}
	if sum != st.shapeBytes || len(st.shapes) >= nodes {
		t.Fatalf("memo: %d shapes holding %d B, accounted %d B", len(st.shapes), sum, st.shapeBytes)
	}
	if got, want := seriesDump(st), seriesDump(oracle); !reflect.DeepEqual(got, want) {
		t.Fatal("the store folded through an evicting memo differs from the leaf-by-leaf store")
	}
	if d := telShapeEvictions.Value() - evictions; d == 0 {
		t.Fatal("no eviction counted")
	}
	if de, db := telShapeEntries.Value()-entries, telShapeBytes.Value()-bytes; de != int64(len(st.shapes)) || db != st.shapeBytes {
		t.Fatalf("gauges moved by %d entries, %d B; the memo holds %d, %d B", de, db, len(st.shapes), st.shapeBytes)
	}
	st.reset()
	if de, db := telShapeEntries.Value()-entries, telShapeBytes.Value()-bytes; de != 0 || db != 0 || len(st.shapes) != 0 {
		t.Fatalf("after reset the gauges still hold %d entries, %d B", de, db)
	}
}

func TestShapeChurnDoesNotAllocate(t *testing.T) {
	// Two shapes under one first key, alternating: every publish misses the
	// memo and re-records its shape in the arrays the previous one left.
	shape := func(second string) []byte {
		n := conduit.NewNode()
		n.SetFloat("PROC/cn01/a", 1)
		n.SetFloat("PROC/cn01/"+second, 2)
		n.SetFloat("PROC/cn01/c", 3)
		return n.EncodeBinary()
	}
	a, b := shape("b"), shape("d")
	st := newSeriesStore(0)
	run := []pub{{ns: NSHardware}}
	publish := func() {
		run[0].enc = a
		st.ingest(5, run, nil, nil)
		run[0].enc = b
		st.ingest(5, run, nil, nil)
	}
	for i := 0; i < rawCap; i++ { // raw rings full: nothing left to grow
		publish()
	}
	if allocs := testing.AllocsPerRun(100, publish); allocs != 0 && !raceEnabled {
		t.Fatalf("%.0f allocations per pair of publishes", allocs)
	}
	if len(st.shapes) != 1 || len(st.m) != 4 {
		t.Fatalf("%d shapes over %d series, want 1 over 4", len(st.shapes), len(st.m))
	}
}

var monCPUFields = [7]string{"user", "nice", "system", "idle", "iowait", "irq", "softirq"}

// monitorTree is one node monitor's publish in the monitors shape: 28 cores ×
// 7 jiffies counters and 4 scalars under PROC/cnNNN/<ts>. Core 3's user
// counter runs hot on every eighth node.
func monitorTree(rng *rand.Rand, node int, ts float64) *conduit.Node {
	n := conduit.NewNode()
	sample := n.Fetch(fmt.Sprintf("PROC/cn%03d/%.6f", node, ts))
	for c := 0; c < 28; c++ {
		for f, field := range monCPUFields {
			v := 5 + 75*rng.Float64()
			if f == 0 && c == 3 && node%8 == 0 {
				v = 95
			}
			sample.SetFloat(fmt.Sprintf("cpu/c%02d/%s", c, field), v)
		}
	}
	sample.SetFloat("Uptime", ts)
	sample.SetInt("Num Processes", int64(200+rng.Intn(50)))
	sample.SetInt("Available RAM", int64(100000+rng.Intn(1000)))
	sample.SetFloat("CPU Util", 100*rng.Float64())
	return n
}

// BenchmarkRollupFold is the rollup layer alone in the monitors shape: one
// op folds one node's 200-leaf, timestamp-keyed publish into a store holding
// 32 nodes' series, with "**/cpu/*/user" armed, and evaluates the rule over
// the series the fold hands back — Service.ingest's stream side without the
// update log. As on monitors, each node's sample time only moves forward, by
// 0.1 s a publish, and every ring is at its capacity before the timer
// starts, so no op grows one and ns/op does not depend on b.N.
func BenchmarkRollupFold(b *testing.B) {
	const nodes, ticks = 32, 40
	// Sample times stay below 1e6, where "%.6f" is as wide as for t0: each
	// op re-stamps its frame's timestamp segment in place.
	const t0 = 100000.0
	stamp := []byte(fmt.Sprintf("%.6f", t0))
	rng := rand.New(rand.NewSource(1))
	frames := make([][]byte, 0, nodes*ticks)
	at := make([]int, 0, nodes*ticks)
	for k := 0; k < ticks; k++ {
		for n := 0; n < nodes; n++ {
			f := monitorTree(rng, n, t0).EncodeBinary()
			frames, at = append(frames, f), append(at, bytes.Index(f, stamp))
		}
	}
	st := newSeriesStore(0)
	e := newAlertEngine(nil)
	if err := e.set(AlertRule{Name: "cpu-hot", NS: NSHardware, Pattern: "**/cpu/*/user", Op: ">", Threshold: 90, WindowSec: 1}); err != nil {
		b.Fatal(err)
	}
	run := []pub{{ns: NSHardware}}
	var watched []*series // reused across folds, as Service.ingest reuses its own
	// fold folds publish i — node i%nodes — stamped t.
	fold := func(i int, t float64) {
		j := i % len(frames)
		strconv.AppendFloat(frames[j][at[j]:][:0:len(stamp)], t, 'f', 6, 64)
		run[0].enc = frames[j]
		var maxT float64
		watched, maxT = st.ingest(2000, run, e.armed.Load().of(NSHardware), watched[:0])
		if len(watched) > 0 {
			e.evaluate(NSHardware, st, watched, maxT)
		}
	}
	// rawCap publishes per node, 10 s apart, fill every raw ring and leave
	// both bucket rings bucketCap slots wide.
	for i := 0; i < rawCap*nodes; i++ {
		fold(i, t0+10*float64(i/nodes))
	}
	for _, se := range st.m {
		if len(se.raw.pts) != rawCap || len(se.b1.slots) != bucketCap || len(se.b10.slots) != bucketCap {
			b.Fatalf("series %q not at capacity: %d raw points, %d and %d bucket slots", se.key, len(se.raw.pts), len(se.b1.slots), len(se.b10.slots))
		}
	}
	start := t0 + 10*rawCap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold(i, start+float64(i/nodes)/10)
	}
}
