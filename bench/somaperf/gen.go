package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
)

// Input generation. Every workload's publishes come from a stream seeded by
// -seed: the same seed yields byte-identical payloads on an identical
// schedule, and the service sees nothing but these inputs. A stream also
// folds what it emitted into the ground truth the oracle checks the service
// against (last value per path, per-series bucket folds, alert standings),
// so the reference never depends on what the service answered.

// pub is one generated publish. Exactly one of enc and tree is set.
type pub struct {
	due  int // tick since the start of the paced phase; a tick is 1 ms, the pacing quantum
	ns   core.Namespace
	path string // first leaf path: the shard-routing key on cluster3
	enc  []byte // pre-encoded CDT1 frame (single-leaf workloads)
	tree *conduit.Node
}

// stream yields a workload's publishes in due order.
type stream interface {
	// next returns the following publish; calls are sequential.
	next() pub
	// peekDue is the due tick of the publish next will return.
	peekDue() int
	// truth returns the ground truth of everything emitted so far.
	truth() *truth
}

// truth is the generator-side reference the oracle compares against.
type truth struct {
	// last maps every leaf path published to its final value, for the
	// namespace the whole-tree check covers (hardware).
	last map[string]float64
	// series is the reference fold of the sampled series: key → 1 s bucket
	// start → (count, sum). Keys whose samples carry no timestamp segment
	// are stamped at arrival by the service; for those only the totals are
	// comparable and everything is folded under bucket -1.
	series map[string]map[int64]*bucketRef
	// firing is the set of series keys whose final alert standing is
	// firing under the workload's rule (monitors only).
	firing map[string]bool
	// subtrees names the subtrees the final query check covers instead of
	// the whole tree (monitors: the node subtrees of a timestamp-keyed tree
	// that grows by design), with their expected leaf count; finalTrees
	// holds, per such subtree, the path and content of its newest sample.
	subtrees   map[string]int
	finalPath  map[string]string
	finalTrees map[string]*conduit.Node
	// perNS counts publishes emitted per namespace.
	perNS map[core.Namespace]int64
}

type bucketRef struct {
	count int64
	sum   float64
}

func newTruth() *truth {
	return &truth{
		last:       map[string]float64{},
		series:     map[string]map[int64]*bucketRef{},
		firing:     map[string]bool{},
		subtrees:   map[string]int{},
		finalPath:  map[string]string{},
		finalTrees: map[string]*conduit.Node{},
		perNS:      map[core.Namespace]int64{},
	}
}

func (t *truth) fold(key string, bucket int64, v float64) {
	m := t.series[key]
	if m == nil {
		return // not a sampled series
	}
	b := m[bucket]
	if b == nil {
		b = &bucketRef{}
		m[bucket] = b
	}
	b.count++
	b.sum += v
}

// ---------------------------------------------------------------------------
// Single-leaf streams: firehose, dashboard, cluster3.

// leafStream emits round-robin single-leaf publishes LOAD/cn%05d/s%02d, one
// float each, following a seeded random walk per publisher. Frames are
// pre-encoded: each publisher's frame is encoded once as a template and
// every publish is a copy of it with the value bytes patched, carved out of
// pointer-free arena chunks so the generator's working set costs the
// harness's garbage collector nothing to trace.
type leafStream struct {
	rng    *rand.Rand
	rate   int // publishes per second, total
	paths  []string
	tmpl   [][]byte
	valOff []int
	walk   []float64
	i      int // publishes emitted
	paced  int // publishes emitted before the paced phase began (preload)
	arena  []byte
	tr     *truth
	// sampled publishers' totals go to truth.series under bucket -1.
	sampled map[int]bool
}

const arenaChunk = 1 << 20

// sampledSeries is how many series the oracle's rollup check covers.
const sampledSeries = 32

func newLeafStream(seed int64, publishers, rate int) *leafStream {
	s := &leafStream{
		rng:     rand.New(rand.NewSource(seed)),
		rate:    rate,
		paths:   make([]string, publishers),
		tmpl:    make([][]byte, publishers),
		valOff:  make([]int, publishers),
		walk:    make([]float64, publishers),
		tr:      newTruth(),
		sampled: map[int]bool{},
	}
	for p := range s.paths {
		s.paths[p] = fmt.Sprintf("LOAD/cn%05d/s%02d", p/16, p%16)
		s.walk[p] = 50 + 10*s.rng.Float64()
		s.tmpl[p], s.valOff[p] = leafTemplate(s.paths[p])
	}
	// The rollup store admits the first 8192 distinct series and drops the
	// rest (counted); round-robin order admits the lowest publisher ids, so
	// the sample is drawn from those.
	admit := publishers
	if admit > 8192 {
		admit = 8192
	}
	for len(s.sampled) < sampledSeries && len(s.sampled) < admit {
		p := s.rng.Intn(admit)
		if !s.sampled[p] {
			s.sampled[p] = true
			s.tr.series[s.paths[p]] = map[int64]*bucketRef{}
		}
	}
	return s
}

// leafTemplate encodes {path: float} and locates the value's bytes by
// encoding twice with values whose every byte differs — no knowledge of the
// wire layout beyond "a float leaf is 8 little-endian bytes" is baked in,
// and that much is verified by decoding a patched copy.
func leafTemplate(path string) (tmpl []byte, off int) {
	a, b := conduit.NewNode(), conduit.NewNode()
	va := math.Float64frombits(0x0102030405060708)
	vb := math.Float64frombits(0xF1F2F3F4F5F6F7F8)
	a.SetFloat(path, va)
	b.SetFloat(path, vb)
	ea, eb := a.EncodeBinary(), b.EncodeBinary()
	if len(ea) != len(eb) {
		panic("somaperf: float leaf frames differ in length")
	}
	off = -1
	for i := range ea {
		if ea[i] != eb[i] {
			off = i
			break
		}
	}
	if off < 0 || off+8 > len(ea) {
		panic("somaperf: cannot locate float value in leaf frame")
	}
	probe := append([]byte(nil), ea...)
	binary.LittleEndian.PutUint64(probe[off:], math.Float64bits(42.5))
	n, err := conduit.DecodeBinary(probe)
	if err != nil {
		panic("somaperf: patched leaf frame does not decode: " + err.Error())
	}
	if v, ok := n.Float(path); !ok || v != 42.5 {
		panic("somaperf: patched leaf frame decodes to the wrong value")
	}
	return ea, off
}

// beginPaced marks the end of the preload: due ticks count from here.
func (s *leafStream) beginPaced() { s.paced = s.i }

func (s *leafStream) peekDue() int { return (s.i - s.paced) * 1000 / s.rate }

func (s *leafStream) next() pub {
	p := s.i % len(s.paths)
	s.walk[p] += s.rng.Float64() - 0.5
	v := s.walk[p]
	t := s.tmpl[p]
	if len(s.arena) < len(t) {
		s.arena = make([]byte, arenaChunk)
	}
	enc := s.arena[:len(t):len(t)]
	s.arena = s.arena[len(t):]
	copy(enc, t)
	binary.LittleEndian.PutUint64(enc[s.valOff[p]:], math.Float64bits(v))
	due := s.peekDue()
	s.i++
	s.tr.last[s.paths[p]] = v
	s.tr.perNS[core.NSHardware]++
	if s.sampled[p] {
		s.tr.fold(s.paths[p], -1, v)
	}
	return pub{due: due, ns: core.NSHardware, path: s.paths[p], enc: enc}
}

func (s *leafStream) truth() *truth { return s.tr }

// ---------------------------------------------------------------------------
// monitors: few wide publishes in the paper's deployment shape.

// Geometry of the monitors workload. 32 node monitors at 10 Hz publish a
// procfs-shaped tree whose sample timestamp is a path segment; 28 cores × 7
// jiffies counters + 4 scalars = 200 numeric leaves per tree, 6400 series
// in all — under the rollup store's 8192-series cap.
const (
	monNodes      = 32
	monCores      = 28
	monNodeHz     = 10
	monRPPerSec   = 80
	monTAUPerSec  = 20
	monLeaves     = monCores*7 + 4
	monSeries     = monNodes * monLeaves
	monTimeBase   = 1000.0 // sample clock origin, seconds
	monHotThresh  = 90.0
	monAlertRule  = "somaperf-cpu-hot"
	monAlertGlob  = "**/cpu/*/user"
	monRate       = monNodes*monNodeHz + monRPPerSec + monTAUPerSec
	monTAUTimers  = 64
	monRPStates   = 8
	monHotNodes   = 4
	monHotPerNode = 2
)

var cpuFields = [7]string{"user", "nice", "system", "idle", "iowait", "irq", "softirq"}

var rpStates = [monRPStates]string{
	"NEW", "TMGR_SCHEDULING", "AGENT_STAGING_INPUT", "AGENT_SCHEDULING",
	"AGENT_EXECUTING", "AGENT_STAGING_OUTPUT", "DONE", "FAILED",
}

// monEvent is one slot of the monitors schedule within a second.
type monEvent struct {
	ms   int // offset within the second
	kind int // 0 hardware, 1 workflow, 2 performance
	node int
}

type monStream struct {
	rng         *rand.Rand
	sched       []monEvent // one second of schedule, sorted by ms; repeats
	i           int        // events emitted
	paced       int
	walk        []float64 // per hardware series
	hot         map[int]bool
	nodeSamples []int // samples emitted per node
	tr          *truth
	// Per series (node × leaf): its rollup key and whether the oracle
	// samples it; per leaf: its path below the sample's timestamp segment.
	// Built once, so a publish costs string joins, not formatting — the
	// publisher builds each tree after its due time, on the clock.
	keys    []string
	sampled []bool
	suffix  []string
	rpSeq   int
	tauSeq  int
}

func monSchedule() []monEvent {
	var ev []monEvent
	for k := 0; k < monNodeHz; k++ {
		for n := 0; n < monNodes; n++ {
			ev = append(ev, monEvent{ms: k*(1000/monNodeHz) + n*3, kind: 0, node: n})
		}
	}
	for k := 0; k < monRPPerSec; k++ {
		ev = append(ev, monEvent{ms: k * 1000 / monRPPerSec, kind: 1})
	}
	for k := 0; k < monTAUPerSec; k++ {
		ev = append(ev, monEvent{ms: k*1000/monTAUPerSec + 7, kind: 2})
	}
	// Stable order by due time, then kind, then node: insertion sort keeps
	// this free of sort's unspecified tie order.
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && monLess(ev[j], ev[j-1]); j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
	return ev
}

func monLess(a, b monEvent) bool {
	if a.ms != b.ms {
		return a.ms < b.ms
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.node < b.node
}

func monSeriesKey(node, core int, field string) string {
	return fmt.Sprintf("PROC/cn%03d/cpu/c%02d/%s", node, core, field)
}

func newMonStream(seed int64) *monStream {
	s := &monStream{
		rng:         rand.New(rand.NewSource(seed)),
		sched:       monSchedule(),
		walk:        make([]float64, monSeries),
		hot:         map[int]bool{},
		nodeSamples: make([]int, monNodes),
		tr:          newTruth(),
		keys:        make([]string, monSeries),
		sampled:     make([]bool, monSeries),
		suffix:      make([]string, monCores*7),
	}
	for i := range s.walk {
		s.walk[i] = 20 + 40*s.rng.Float64()
	}
	for c := 0; c < monCores; c++ {
		for f, field := range cpuFields {
			s.suffix[c*7+f] = fmt.Sprintf("/cpu/c%02d/%s", c, field)
			for n := 0; n < monNodes; n++ {
				s.keys[n*monLeaves+c*7+f] = monSeriesKey(n, c, field)
			}
		}
	}
	// Hot series: the user counter of a few cores on a few nodes sits above
	// the alert threshold for the whole run; every other user counter stays
	// below it. The firing set is therefore known in advance.
	for len(s.hot) < monHotNodes*monHotPerNode {
		n := s.rng.Intn(monNodes)
		c := s.rng.Intn(monCores)
		s.hot[n*monCores+c] = true
	}
	for len(s.tr.series) < sampledSeries {
		idx := s.rng.Intn(monNodes)*monLeaves + s.rng.Intn(monCores*7)
		s.sampled[idx] = true
		s.tr.series[s.keys[idx]] = map[int64]*bucketRef{}
	}
	return s
}

// beginPaced marks the end of the preload, which is a whole number of
// schedule seconds so due ticks and sample timestamps stay aligned.
func (s *monStream) beginPaced() {
	if s.i%len(s.sched) != 0 {
		panic("somaperf: monitors preload is not a whole number of schedule seconds")
	}
	s.paced = s.i
}

func (s *monStream) peekDue() int {
	ev := s.sched[s.i%len(s.sched)]
	return (s.i-s.paced)/len(s.sched)*1000 + ev.ms
}

func (s *monStream) next() pub {
	ev := s.sched[s.i%len(s.sched)]
	sec := s.i / len(s.sched)
	due := s.peekDue()
	s.i++
	var p pub
	switch ev.kind {
	case 0:
		p = s.hardware(sec, ev)
	case 1:
		p = s.workflow(sec, ev)
	default:
		p = s.performance(sec, ev)
	}
	p.due = due
	s.tr.perNS[p.ns]++
	return p
}

func (s *monStream) hardware(sec int, ev monEvent) pub {
	ts := fmt.Sprintf("%.6f", monTimeBase+float64(sec)+float64(ev.ms)/1000)
	t, _ := strconv.ParseFloat(ts, 64) // the sample time as the service parses it back
	bucket := int64(math.Floor(t))
	host := fmt.Sprintf("cn%03d", ev.node)
	base := "PROC/" + host + "/" + ts
	n := conduit.NewNode()
	first := ""
	for c := 0; c < monCores; c++ {
		for f := range cpuFields {
			idx := ev.node*monLeaves + c*7 + f
			hot := f == 0 && s.hot[ev.node*monCores+c]
			v := s.step(idx, hot)
			path := base + s.suffix[c*7+f]
			if first == "" {
				first = path
			}
			n.SetFloat(path, v)
			if s.sampled[idx] {
				s.tr.fold(s.keys[idx], bucket, v)
			}
			if hot {
				s.tr.firing[s.keys[idx]] = true
			}
		}
	}
	scal := ev.node*monLeaves + monCores*7
	n.SetFloat(base+"/Uptime", monTimeBase+float64(sec))
	n.SetInt(base+"/Num Processes", int64(200+s.rng.Intn(50)))
	n.SetInt(base+"/Available RAM", int64(100000+s.rng.Intn(1000)))
	n.SetFloat(base+"/CPU Util", s.step(scal, false))
	s.nodeSamples[ev.node]++
	s.tr.subtrees["PROC/"+host] = s.nodeSamples[ev.node] * monLeaves
	s.tr.finalPath["PROC/"+host] = base
	s.tr.finalTrees["PROC/"+host], _ = n.Get(base)
	return pub{ns: core.NSHardware, path: first, tree: n}
}

// step advances one series' random walk. Ordinary series are reflected into
// [5, 80]; hot ones into [92, 99], so no ordinary window mean can cross the
// alert threshold and no hot one can fall under it: the firing set the
// service must report is exactly the hot series.
func (s *monStream) step(idx int, hot bool) float64 {
	lo, hi := 5.0, 80.0
	if hot {
		lo, hi = 92.0, 99.0
	}
	v := s.walk[idx] + 2*(s.rng.Float64()-0.5)
	if hot && (v < lo || v > hi) {
		v = (lo + hi) / 2
	}
	if v < lo {
		v = 2*lo - v
	}
	if v > hi {
		v = 2*hi - v
	}
	s.walk[idx] = v
	return v
}

func (s *monStream) workflow(sec int, ev monEvent) pub {
	ts := fmt.Sprintf("%.7f", monTimeBase+float64(sec)+float64(ev.ms)/1000)
	uid := fmt.Sprintf("task.%06d", s.rpSeq/monRPStates)
	state := rpStates[s.rpSeq%monRPStates]
	s.rpSeq++
	base := "RP/" + uid
	n := conduit.NewNode()
	n.SetString(base+"/states/"+ts, state)
	n.SetString(base+"/description/executable", "/bin/openfoam")
	n.SetString(base+"/description/name", uid)
	n.SetString(base+"/pilot", "pilot.0000")
	n.SetString(base+"/resource", "ornl.summit")
	n.SetString(base+"/node", fmt.Sprintf("cn%03d", s.rng.Intn(monNodes)))
	return pub{ns: core.NSWorkflow, path: base + "/states/" + ts, tree: n}
}

func (s *monStream) performance(sec int, ev monEvent) pub {
	ts := fmt.Sprintf("%.6f", monTimeBase+float64(sec)+float64(ev.ms)/1000)
	base := fmt.Sprintf("TAU/rank%03d/%s", s.tauSeq%monNodes, ts)
	s.tauSeq++
	incl := make([]float64, monTAUTimers)
	excl := make([]float64, monTAUTimers)
	for i := range incl {
		incl[i] = 1000 * s.rng.Float64()
		excl[i] = incl[i] * s.rng.Float64()
	}
	n := conduit.NewNode()
	n.SetFloatArray(base+"/inclusive", incl)
	n.SetFloatArray(base+"/exclusive", excl)
	n.SetString(base+"/metric", "TIME")
	return pub{ns: core.NSPerformance, path: base + "/inclusive", tree: n}
}

func (s *monStream) truth() *truth { return s.tr }

// ---------------------------------------------------------------------------
// Marker probes: the observer's own publishes.

// markerPath is the n-th rotating marker path; value is the marker's
// sequence number, so a reader can tell which marker it is looking at.
func markerPath(seq, rotate int) string {
	return fmt.Sprintf("PROBE/m%02d", seq%rotate)
}

func markerTree(seq, rotate int) *conduit.Node {
	n := conduit.NewNode()
	n.SetFloat(markerPath(seq, rotate), float64(seq))
	return n
}
