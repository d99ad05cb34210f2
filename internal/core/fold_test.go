package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// foldGen spells a tree frame from fuzzer bytes straight onto the wire —
// sibling names may repeat, which no conduit.Node can hold — and records its
// numeric leaves in wire order, paths joined as conduit's walks join them.
type foldGen struct {
	data   []byte
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

func (g *foldGen) tree() []byte {
	g.frame = append([]byte{'C', 'D', 'T', 1}, byte(conduit.KindObject))
	g.leaves = g.leaves[:0]
	g.object("", 0)
	return g.frame
}

func (g *foldGen) object(path string, depth int) {
	n := int(g.next() % 5)
	g.frame = binary.AppendUvarint(g.frame, uint64(n))
	for i := 0; i < n; i++ {
		name := foldVocab[int(g.next())%len(foldVocab)]
		g.frame = binary.AppendUvarint(g.frame, uint64(len(name)))
		g.frame = append(g.frame, name...)
		child := name
		if path != "" {
			child = path + "/" + name
		}
		switch b := g.next(); {
		case b%4 == 0 && depth < 6:
			g.frame = append(g.frame, byte(conduit.KindObject))
			g.object(child, depth+1)
		case b%4 == 1:
			v := int64(int8(g.next()))
			g.frame = binary.AppendVarint(append(g.frame, byte(conduit.KindInt)), v)
			g.leaves = append(g.leaves, foldLeaf{child, float64(v)})
		case b%4 == 2:
			v := foldValues[int(g.next())%len(foldValues)]
			g.frame = binary.LittleEndian.AppendUint64(append(g.frame, byte(conduit.KindFloat)), math.Float64bits(v))
			g.leaves = append(g.leaves, foldLeaf{child, v})
		default:
			g.frame = append(g.frame, byte(conduit.KindString), 2, 'o', 'k')
		}
	}
}

// FuzzRollupFold is the fold's differential: runs of fuzzer-spelled frames
// are folded into one store by seriesStore.ingest, and leaf by leaf into
// another — splitSeriesPath, then observe, with matchSeriesKey deciding the
// watched set. Both stores are capped small so drops happen; between runs
// the namespace, the armed rule set and a reset vary. After every run the
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
				run[i] = pub{ns: ns, enc: g.tree()}
				leaves = append(leaves, g.leaves...)
			}

			dropped := telSeriesDropped.Value()
			watched, maxT := fold.ingest(arrival, run, e.armed.Load().of(ns))
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
// update log.
func BenchmarkRollupFold(b *testing.B) {
	const nodes, ticks = 32, 40
	rng := rand.New(rand.NewSource(1))
	frames := make([][]byte, 0, nodes*ticks)
	for k := 0; k < ticks; k++ {
		for n := 0; n < nodes; n++ {
			frames = append(frames, monitorTree(rng, n, 1000+float64(k)/10).EncodeBinary())
		}
	}
	st := newSeriesStore(0)
	e := newAlertEngine(nil)
	if err := e.set(AlertRule{Name: "cpu-hot", NS: NSHardware, Pattern: "**/cpu/*/user", Op: ">", Threshold: 90, WindowSec: 1}); err != nil {
		b.Fatal(err)
	}
	run := []pub{{ns: NSHardware}}
	fold := func(enc []byte) {
		run[0].enc = enc
		watched, maxT := st.ingest(2000, run, e.armed.Load().of(NSHardware))
		if len(watched) > 0 {
			e.evaluate(NSHardware, st, watched, maxT)
		}
	}
	for _, f := range frames[:nodes] {
		fold(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold(frames[i%len(frames)])
	}
}
