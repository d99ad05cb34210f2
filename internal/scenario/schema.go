package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/faults"
)

// ---------------------------------------------------------------------------
// Scenario schema. Every struct below maps one-to-one onto a block of the
// YAML file; the decoder is strict — unknown keys, wrong shapes, and
// dangling references are errors, never warnings, so `somasim validate`
// catches a typo'd scenario before a fleet ever boots.

// Scenario is one declarative run: a fleet, a timeline, and assertions.
type Scenario struct {
	Name        string
	Description string
	// Seed drives the fault-injection PRNG (and is echoed in the verdict);
	// the -seed flag overrides it. Same seed, same fault decision stream.
	Seed int64
	// Duration is the total run length; events must fit inside it.
	Duration time.Duration
	Fleet    Fleet
	Timeline []Event
	Asserts  []Assertion
}

// Fleet declares what to boot before the timeline starts.
type Fleet struct {
	// Cluster joins every instance into one sharded SOMA cluster
	// (consistent-hash placement, scatter-gather reads) before the scenario
	// clock starts. Requires at least two instances.
	Cluster     bool
	Instances   []Instance
	Workloads   []Workload
	Subscribers []SubscriberGroup
}

// Instance is one somad service (an in-proc core.Service or a real child
// process, per run mode).
type Instance struct {
	Name  string
	Ranks int // SOMA ranks per namespace instance (default 1)
	Line  int
}

// Workload layouts: how publish paths are laid out under the workload's
// prefix.
const (
	// LayoutDistinct publishes every sample to its own leaf
	// (<prefix>/<name>/p<seq>), value = seq — the layout zero-loss and
	// ground-truth assertions account against (nothing can hide behind
	// last-writer-wins).
	LayoutDistinct = "distinct"
	// LayoutRotate cycles over a fixed set of leaves
	// (<prefix>/<name>/l<seq mod leaves>) — the layout that feeds rollup
	// series and threshold alerts.
	LayoutRotate = "rotate"
)

// Timestamp modes: what timestamp segment, if any, a workload appends to
// each leaf path (the rollup engine folds a trailing numeric segment out as
// the sample time).
const (
	TimestampsNone = "none" // no segment; samples stamped with arrival time
	TimestampsNow  = "now"  // wall-clock seconds
	// TimestampsHostile cycles implausible values (negative, > 1e15, huge
	// exponents) that must stay in the series key rather than poison the
	// rollup rings — the PR 3 hardening, exercised at rate.
	TimestampsHostile = "hostile"
	// TimestampsSkew alternates wall clock ± 1h — plausible values that
	// land far outside the live rollup windows.
	TimestampsSkew = "skew"
)

// Workload is one scripted publisher: paths under Prefix/Name into NS on
// Instance, Rate publishes per second. Publishes that fail are retried
// until acknowledged (the scenario clock keeps running), so the zero-loss
// ledger records exactly what the service accepted.
type Workload struct {
	Name       string
	Instance   string
	NS         core.Namespace
	Prefix     string
	Rate       float64 // publishes per second
	Layout     string  // distinct | rotate
	Leaves     int     // rotate: number of leaf slots
	Value      string  // "seq" or a constant number (set_value retargets it)
	Timestamps string  // none | now | hostile | skew
	Start      time.Duration
	Line       int
}

// SubscriberGroup is Count live update-log subscribers attached from fleet
// start — the "live WS subscribers" a kill/restart must not strand. What the
// log's byte budget shed before they read it feeds the max_dropped budget.
type SubscriberGroup struct {
	Name     string
	Instance string
	NS       core.Namespace
	Pattern  string
	Count    int
	Line     int
}

// Timeline actions.
const (
	ActInjectFault = "inject_fault"
	ActHeal        = "heal"
	ActKill        = "kill"
	ActRestart     = "restart"
	ActBurst       = "burst"
	ActHerd        = "herd"
	ActAlertSet    = "alert_set"
	ActAlertRm     = "alert_rm"
	ActPause       = "pause"
	ActResume      = "resume"
	ActSetValue    = "set_value"
)

// Event is one timeline entry, executed at its offset from scenario start.
type Event struct {
	At     time.Duration
	Action string
	Target string // kill/restart: instance; pause/resume/set_value: workload; alert_rm: rule
	Line   int

	Fault *FaultParams    // inject_fault
	Burst *BurstParams    // burst
	Herd  *HerdParams     // herd
	Alert *core.AlertRule // alert_set
	Value float64         // set_value
}

// FaultParams scripts one inject_fault event: per-frame probabilities by
// kind, delay bounds, and an optional budget after which the transport goes
// quiet on its own (guaranteed heal without a heal event).
type FaultParams struct {
	Drop, Sever, Corrupt, Blackhole, Delay float64
	DelayMin, DelayMax                     time.Duration
	Budget                                 int64
}

// Config lowers the scripted parameters onto the faults layer.
func (f *FaultParams) Config(seed int64) faults.Config {
	return faults.Config{
		Seed:          seed,
		DropProb:      f.Drop,
		SeverProb:     f.Sever,
		CorruptProb:   f.Corrupt,
		BlackholeProb: f.Blackhole,
		DelayProb:     f.Delay,
		DelayMin:      f.DelayMin,
		DelayMax:      f.DelayMax,
		Budget:        f.Budget,
	}
}

// BurstParams scripts a best-effort publish burst (adversity traffic; not
// part of the zero-loss ledger).
type BurstParams struct {
	Instance    string
	NS          core.Namespace
	Prefix      string
	Count       int
	Concurrency int
}

// HerdParams scripts a thundering herd: Count subscriptions opened
// concurrently at one instant, held until scenario end.
type HerdParams struct {
	Instance string
	NS       core.Namespace
	Pattern  string
	Count    int
}

// Assertion types.
const (
	AssertHealth      = "health"
	AssertZeroLoss    = "zero_loss"
	AssertGroundTruth = "query_matches_ground_truth"
	AssertFired       = "alert_fired"
	AssertResolved    = "alert_resolved"
	AssertMaxDropped  = "max_dropped"
	AssertNoLeak      = "no_goroutine_leak"
	AssertP99Below    = "p99_below"
)

// Assertion is one verdict clause, evaluated at end of run (alert deadlines
// are judged against observations collected during it).
type Assertion struct {
	Type     string
	Instance string        // health / p99_below ("" = first instance)
	Expect   string        // health: ok | stopped | unreachable
	Workload string        // zero_loss / ground truth: restrict to one workload
	Rule     string        // alert_fired / alert_resolved
	By       time.Duration // alert deadline (scenario time; 0 = any time)
	Budget   int64         // max_dropped / no_goroutine_leak
	Metric   string        // p99_below: telemetry histogram name
	Below    time.Duration // p99_below: required p99 upper bound
	Line     int
}

// ---------------------------------------------------------------------------
// Strict decoding.

// Parse decodes and validates one scenario document.
func Parse(src []byte) (*Scenario, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	dc := &decoder{}
	sc := dc.scenario(root)
	if err := dc.err(); err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// ParseFile is Parse over a file.
func ParseFile(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(src)
}

// decoder accumulates structural errors so one validate pass reports every
// problem, not just the first.
type decoder struct{ errs []error }

func (dc *decoder) errf(line int, format string, args ...any) {
	dc.errs = append(dc.errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

func (dc *decoder) err() error { return errors.Join(dc.errs...) }

// dict wraps a mapping node and tracks which keys the schema consumed.
type dict struct {
	n    *yamlNode
	used map[string]bool
}

func (dc *decoder) dict(n *yamlNode, what string) *dict {
	if n == nil {
		return nil
	}
	if n.kind != yMap {
		dc.errf(n.line, "%s must be a mapping, got a %s", what, n.kind)
		return nil
	}
	return &dict{n: n, used: map[string]bool{}}
}

// done flags every unconsumed key as unknown.
func (dc *decoder) done(d *dict, what string) {
	if d == nil {
		return
	}
	for _, k := range d.n.keys {
		if !d.used[k] {
			dc.errf(d.n.m[k].line, "unknown %s key %q", what, k)
		}
	}
}

func (d *dict) get(key string) *yamlNode {
	if d == nil {
		return nil
	}
	d.used[key] = true
	return d.n.m[key]
}

func (dc *decoder) str(d *dict, key, def string) string {
	n := d.get(key)
	if n == nil {
		return def
	}
	if n.kind != yScalar {
		dc.errf(n.line, "%q must be a scalar, got a %s", key, n.kind)
		return def
	}
	return n.scalar
}

func (dc *decoder) f64(d *dict, key string, def float64) float64 {
	n := d.get(key)
	if n == nil {
		return def
	}
	if n.kind != yScalar {
		dc.errf(n.line, "%q must be a number, got a %s", key, n.kind)
		return def
	}
	v, err := strconv.ParseFloat(n.scalar, 64)
	if err != nil {
		dc.errf(n.line, "%q: bad number %q", key, n.scalar)
		return def
	}
	return v
}

func (dc *decoder) i64(d *dict, key string, def int64) int64 {
	n := d.get(key)
	if n == nil {
		return def
	}
	if n.kind != yScalar {
		dc.errf(n.line, "%q must be an integer, got a %s", key, n.kind)
		return def
	}
	v, err := strconv.ParseInt(n.scalar, 10, 64)
	if err != nil {
		dc.errf(n.line, "%q: bad integer %q (%v)", key, n.scalar, unwrapNum(err))
		return def
	}
	return v
}

func (dc *decoder) boolean(d *dict, key string, def bool) bool {
	n := d.get(key)
	if n == nil {
		return def
	}
	if n.kind != yScalar {
		dc.errf(n.line, "%q must be a boolean, got a %s", key, n.kind)
		return def
	}
	v, err := strconv.ParseBool(n.scalar)
	if err != nil {
		dc.errf(n.line, "%q: bad boolean %q (want true or false)", key, n.scalar)
		return def
	}
	return v
}

func (dc *decoder) dur(d *dict, key string, def time.Duration) time.Duration {
	n := d.get(key)
	if n == nil {
		return def
	}
	if n.kind != yScalar {
		dc.errf(n.line, "%q must be a duration, got a %s", key, n.kind)
		return def
	}
	v, err := time.ParseDuration(n.scalar)
	if err != nil {
		dc.errf(n.line, "%q: bad duration %q (want e.g. 500ms, 3s)", key, n.scalar)
		return def
	}
	return v
}

func (dc *decoder) list(d *dict, key string) []*yamlNode {
	n := d.get(key)
	if n == nil {
		return nil
	}
	if n.kind != yList {
		dc.errf(n.line, "%q must be a list, got a %s", key, n.kind)
		return nil
	}
	return n.items
}

// unwrapNum strips the strconv wrapper for terser messages.
func unwrapNum(err error) string {
	var ne *strconv.NumError
	if errors.As(err, &ne) {
		return ne.Err.Error()
	}
	return err.Error()
}

func (dc *decoder) scenario(root *yamlNode) *Scenario {
	d := dc.dict(root, "scenario")
	if d == nil {
		return &Scenario{}
	}
	sc := &Scenario{
		Name:        dc.str(d, "name", ""),
		Description: dc.str(d, "description", ""),
		Seed:        dc.i64(d, "seed", 1),
		Duration:    dc.dur(d, "duration", 0),
	}
	if fn := d.get("fleet"); fn != nil {
		sc.Fleet = dc.fleet(fn)
	} else {
		dc.errf(root.line, "missing required section %q", "fleet")
	}
	for _, it := range dc.list(d, "timeline") {
		sc.Timeline = append(sc.Timeline, dc.event(it))
	}
	for _, it := range dc.list(d, "assertions") {
		sc.Asserts = append(sc.Asserts, dc.assertion(it))
	}
	dc.done(d, "scenario")
	return sc
}

func (dc *decoder) fleet(n *yamlNode) Fleet {
	d := dc.dict(n, "fleet")
	var f Fleet
	f.Cluster = dc.boolean(d, "cluster", false)
	for _, it := range dc.list(d, "instances") {
		id := dc.dict(it, "instance")
		if id == nil {
			continue
		}
		f.Instances = append(f.Instances, Instance{
			Name:  dc.str(id, "name", ""),
			Ranks: int(dc.i64(id, "ranks", 1)),
			Line:  it.line,
		})
		dc.done(id, "instance")
	}
	for _, it := range dc.list(d, "workloads") {
		wd := dc.dict(it, "workload")
		if wd == nil {
			continue
		}
		f.Workloads = append(f.Workloads, Workload{
			Name:       dc.str(wd, "name", ""),
			Instance:   dc.str(wd, "instance", ""),
			NS:         core.Namespace(dc.str(wd, "ns", "")),
			Prefix:     dc.str(wd, "prefix", "sim"),
			Rate:       dc.f64(wd, "rate", 0),
			Layout:     dc.str(wd, "layout", LayoutDistinct),
			Leaves:     int(dc.i64(wd, "leaves", 16)),
			Value:      dc.str(wd, "value", "seq"),
			Timestamps: dc.str(wd, "timestamps", TimestampsNone),
			Start:      dc.dur(wd, "start", 0),
			Line:       it.line,
		})
		dc.done(wd, "workload")
	}
	for _, it := range dc.list(d, "subscribers") {
		sd := dc.dict(it, "subscriber")
		if sd == nil {
			continue
		}
		f.Subscribers = append(f.Subscribers, SubscriberGroup{
			Name:     dc.str(sd, "name", ""),
			Instance: dc.str(sd, "instance", ""),
			NS:       core.Namespace(dc.str(sd, "ns", "")),
			Pattern:  dc.str(sd, "pattern", ""),
			Count:    int(dc.i64(sd, "count", 1)),
			Line:     it.line,
		})
		dc.done(sd, "subscriber")
	}
	dc.done(d, "fleet")
	return f
}

func (dc *decoder) event(n *yamlNode) Event {
	d := dc.dict(n, "event")
	if d == nil {
		return Event{Line: n.line}
	}
	ev := Event{
		At:     dc.dur(d, "at", -1),
		Action: dc.str(d, "action", ""),
		Line:   n.line,
	}
	switch ev.Action {
	case ActInjectFault:
		ev.Fault = &FaultParams{
			Drop:      dc.f64(d, "drop", 0),
			Sever:     dc.f64(d, "sever", 0),
			Corrupt:   dc.f64(d, "corrupt", 0),
			Blackhole: dc.f64(d, "blackhole", 0),
			Delay:     dc.f64(d, "delay", 0),
			DelayMin:  dc.dur(d, "delay_min", time.Millisecond),
			DelayMax:  dc.dur(d, "delay_max", 10*time.Millisecond),
			Budget:    dc.i64(d, "budget", 0),
		}
	case ActHeal:
		// no parameters
	case ActKill, ActRestart, ActPause, ActResume, ActAlertRm:
		ev.Target = dc.str(d, "target", "")
	case ActSetValue:
		ev.Target = dc.str(d, "target", "")
		ev.Value = dc.f64(d, "value", 0)
	case ActBurst:
		ev.Burst = &BurstParams{
			Instance:    dc.str(d, "instance", ""),
			NS:          core.Namespace(dc.str(d, "ns", "")),
			Prefix:      dc.str(d, "prefix", "burst"),
			Count:       int(dc.i64(d, "count", 0)),
			Concurrency: int(dc.i64(d, "concurrency", 4)),
		}
	case ActHerd:
		ev.Herd = &HerdParams{
			Instance: dc.str(d, "instance", ""),
			NS:       core.Namespace(dc.str(d, "ns", "")),
			Pattern:  dc.str(d, "pattern", ""),
			Count:    int(dc.i64(d, "count", 0)),
		}
	case ActAlertSet:
		ev.Alert = &core.AlertRule{
			Name:      dc.str(d, "name", ""),
			NS:        core.Namespace(dc.str(d, "ns", "")),
			Pattern:   dc.str(d, "pattern", ""),
			Op:        dc.str(d, "op", ""),
			Threshold: dc.f64(d, "threshold", 0),
			WindowSec: dc.dur(d, "window", time.Second).Seconds(),
			Severity:  dc.str(d, "severity", ""),
		}
	case "":
		dc.errf(n.line, "event missing %q", "action")
	default:
		dc.errf(n.line, "unknown action %q", ev.Action)
	}
	dc.done(d, fmt.Sprintf("%s event", ev.Action))
	return ev
}

func (dc *decoder) assertion(n *yamlNode) Assertion {
	d := dc.dict(n, "assertion")
	if d == nil {
		return Assertion{Line: n.line}
	}
	a := Assertion{Type: dc.str(d, "type", ""), Line: n.line}
	switch a.Type {
	case AssertHealth:
		a.Instance = dc.str(d, "instance", "")
		a.Expect = dc.str(d, "expect", "ok")
	case AssertZeroLoss, AssertGroundTruth:
		a.Workload = dc.str(d, "workload", "")
	case AssertFired, AssertResolved:
		a.Rule = dc.str(d, "rule", "")
		a.By = dc.dur(d, "by", 0)
	case AssertMaxDropped:
		a.Budget = dc.i64(d, "budget", 0)
	case AssertNoLeak:
		a.Budget = dc.i64(d, "budget", 24)
	case AssertP99Below:
		a.Instance = dc.str(d, "instance", "")
		a.Metric = dc.str(d, "metric", "")
		a.Below = dc.dur(d, "below", 0)
	case "":
		dc.errf(n.line, "assertion missing %q", "type")
	default:
		dc.errf(n.line, "unknown assertion type %q", a.Type)
	}
	dc.done(d, fmt.Sprintf("%s assertion", a.Type))
	return a
}

// ---------------------------------------------------------------------------
// Validation (cross-references, ranges).

// maxDuration caps a scenario so an overflowed or absurd duration cannot
// turn a CI job into a soak.
const maxDuration = 10 * time.Minute

func (sc *Scenario) validate() error {
	var errs []error
	ef := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	if sc.Name == "" {
		errs = append(errs, errors.New("scenario: missing name"))
	}
	if sc.Duration <= 0 {
		errs = append(errs, fmt.Errorf("scenario %q: duration must be positive, got %v", sc.Name, sc.Duration))
	} else if sc.Duration > maxDuration {
		errs = append(errs, fmt.Errorf("scenario %q: duration %v exceeds the %v cap", sc.Name, sc.Duration, maxDuration))
	}

	if len(sc.Fleet.Instances) == 0 {
		errs = append(errs, fmt.Errorf("scenario %q: empty fleet (declare at least one instance)", sc.Name))
	}
	if sc.Fleet.Cluster && len(sc.Fleet.Instances) < 2 {
		errs = append(errs, fmt.Errorf("scenario %q: cluster: true needs at least two instances", sc.Name))
	}
	instances := map[string]bool{}
	for _, in := range sc.Fleet.Instances {
		switch {
		case in.Name == "":
			ef(in.Line, "instance missing name")
		case instances[in.Name]:
			ef(in.Line, "duplicate instance name %q", in.Name)
		default:
			instances[in.Name] = true
		}
		if in.Ranks < 1 || in.Ranks > 64 {
			ef(in.Line, "instance %q: ranks must be in [1, 64], got %d", in.Name, in.Ranks)
		}
	}

	workloads := map[string]*Workload{}
	for i := range sc.Fleet.Workloads {
		w := &sc.Fleet.Workloads[i]
		switch {
		case w.Name == "":
			ef(w.Line, "workload missing name")
		case workloads[w.Name] != nil:
			ef(w.Line, "duplicate workload name %q", w.Name)
		default:
			workloads[w.Name] = w
		}
		if !instances[w.Instance] {
			ef(w.Line, "workload %q references undeclared instance %q", w.Name, w.Instance)
		}
		if !w.NS.Valid() {
			ef(w.Line, "workload %q: unknown namespace %q", w.Name, w.NS)
		}
		if w.Rate <= 0 || w.Rate > 100000 {
			ef(w.Line, "workload %q: rate must be in (0, 100000] publishes/sec, got %g", w.Name, w.Rate)
		}
		if w.Layout != LayoutDistinct && w.Layout != LayoutRotate {
			ef(w.Line, "workload %q: layout must be %q or %q, got %q", w.Name, LayoutDistinct, LayoutRotate, w.Layout)
		}
		if w.Leaves < 1 || w.Leaves > 65536 {
			ef(w.Line, "workload %q: leaves must be in [1, 65536], got %d", w.Name, w.Leaves)
		}
		if w.Value != "seq" {
			if _, err := strconv.ParseFloat(w.Value, 64); err != nil {
				ef(w.Line, "workload %q: value must be %q or a number, got %q", w.Name, "seq", w.Value)
			}
		}
		switch w.Timestamps {
		case TimestampsNone, TimestampsNow, TimestampsHostile, TimestampsSkew:
		default:
			ef(w.Line, "workload %q: unknown timestamps mode %q", w.Name, w.Timestamps)
		}
		if w.Start < 0 || w.Start > sc.Duration {
			ef(w.Line, "workload %q: start %v outside [0, %v]", w.Name, w.Start, sc.Duration)
		}
	}

	subs := map[string]bool{}
	for _, g := range sc.Fleet.Subscribers {
		switch {
		case g.Name == "":
			ef(g.Line, "subscriber group missing name")
		case subs[g.Name]:
			ef(g.Line, "duplicate subscriber group name %q", g.Name)
		default:
			subs[g.Name] = true
		}
		if !instances[g.Instance] {
			ef(g.Line, "subscriber group %q references undeclared instance %q", g.Name, g.Instance)
		}
		if !g.NS.Valid() && g.NS != core.NSAlerts && g.NS != "" {
			ef(g.Line, "subscriber group %q: unknown namespace %q", g.Name, g.NS)
		}
		if g.Count < 1 || g.Count > 10000 {
			ef(g.Line, "subscriber group %q: count must be in [1, 10000], got %d", g.Name, g.Count)
		}
	}

	rules := map[string]bool{}
	for i := range sc.Timeline {
		ev := &sc.Timeline[i]
		if ev.At < 0 {
			ef(ev.Line, "event %s: negative or missing at: offset", ev.Action)
		} else if ev.At > sc.Duration {
			ef(ev.Line, "event %s: at %v is past the scenario duration %v", ev.Action, ev.At, sc.Duration)
		}
		switch ev.Action {
		case ActKill, ActRestart:
			if !instances[ev.Target] {
				ef(ev.Line, "event %s references undeclared instance %q", ev.Action, ev.Target)
			}
		case ActPause, ActResume, ActSetValue:
			if workloads[ev.Target] == nil {
				ef(ev.Line, "event %s references undeclared workload %q", ev.Action, ev.Target)
			}
		case ActInjectFault:
			f := ev.Fault
			total := f.Drop + f.Sever + f.Corrupt + f.Blackhole + f.Delay
			for _, p := range []float64{f.Drop, f.Sever, f.Corrupt, f.Blackhole, f.Delay} {
				if p < 0 || p > 1 {
					ef(ev.Line, "inject_fault: probabilities must be in [0, 1]")
					break
				}
			}
			if total <= 0 {
				ef(ev.Line, "inject_fault: no fault kind has a positive probability")
			} else if total > 1 {
				ef(ev.Line, "inject_fault: probabilities sum to %.3g > 1", total)
			}
			if f.DelayMin < 0 || f.DelayMax < f.DelayMin {
				ef(ev.Line, "inject_fault: need 0 <= delay_min <= delay_max")
			}
			if f.Budget < 0 {
				ef(ev.Line, "inject_fault: negative budget")
			}
		case ActBurst:
			b := ev.Burst
			if !instances[b.Instance] {
				ef(ev.Line, "burst references undeclared instance %q", b.Instance)
			}
			if !b.NS.Valid() {
				ef(ev.Line, "burst: unknown namespace %q", b.NS)
			}
			if b.Count < 1 || b.Count > 1000000 {
				ef(ev.Line, "burst: count must be in [1, 1000000], got %d", b.Count)
			}
			if b.Concurrency < 1 || b.Concurrency > 256 {
				ef(ev.Line, "burst: concurrency must be in [1, 256], got %d", b.Concurrency)
			}
		case ActHerd:
			h := ev.Herd
			if !instances[h.Instance] {
				ef(ev.Line, "herd references undeclared instance %q", h.Instance)
			}
			if !h.NS.Valid() && h.NS != core.NSAlerts && h.NS != "" {
				ef(ev.Line, "herd: unknown namespace %q", h.NS)
			}
			if h.Count < 1 || h.Count > 10000 {
				ef(ev.Line, "herd: count must be in [1, 10000], got %d", h.Count)
			}
		case ActAlertSet:
			r := ev.Alert
			if r.Name == "" {
				ef(ev.Line, "alert_set missing rule name")
			}
			if !r.NS.Valid() {
				ef(ev.Line, "alert_set %q: unknown namespace %q", r.Name, r.NS)
			}
			if r.Pattern == "" {
				ef(ev.Line, "alert_set %q: missing pattern", r.Name)
			}
			switch r.Op {
			case ">", "<", ">=", "<=":
			default:
				ef(ev.Line, "alert_set %q: op must be one of > < >= <=, got %q", r.Name, r.Op)
			}
			rules[r.Name] = true
		case ActAlertRm:
			if ev.Target == "" {
				ef(ev.Line, "alert_rm missing target rule name")
			}
		}
	}

	for i := range sc.Asserts {
		a := &sc.Asserts[i]
		switch a.Type {
		case AssertHealth:
			if !instances[a.Instance] {
				ef(a.Line, "health assertion references undeclared instance %q", a.Instance)
			}
			switch a.Expect {
			case "ok", "stopped", "unreachable":
			default:
				ef(a.Line, "health assertion: expect must be ok, stopped or unreachable, got %q", a.Expect)
			}
		case AssertZeroLoss, AssertGroundTruth:
			if a.Workload != "" {
				w := workloads[a.Workload]
				if w == nil {
					ef(a.Line, "%s references undeclared workload %q", a.Type, a.Workload)
				} else if w.Layout != LayoutDistinct {
					ef(a.Line, "%s requires a %s-layout workload, %q is %s", a.Type, LayoutDistinct, a.Workload, w.Layout)
				}
			} else {
				distinct := 0
				for _, w := range sc.Fleet.Workloads {
					if w.Layout == LayoutDistinct {
						distinct++
					}
				}
				if distinct == 0 {
					ef(a.Line, "%s needs at least one %s-layout workload", a.Type, LayoutDistinct)
				}
			}
		case AssertFired, AssertResolved:
			if a.Rule == "" {
				ef(a.Line, "%s missing rule name", a.Type)
			} else if !rules[a.Rule] {
				ef(a.Line, "%s references rule %q that no alert_set event installs", a.Type, a.Rule)
			}
			if a.By < 0 || a.By > sc.Duration {
				ef(a.Line, "%s: by %v outside (0, %v]", a.Type, a.By, sc.Duration)
			}
		case AssertMaxDropped, AssertNoLeak:
			if a.Budget < 0 {
				ef(a.Line, "%s: negative budget", a.Type)
			}
		case AssertP99Below:
			if a.Metric == "" {
				ef(a.Line, "p99_below missing metric (a telemetry histogram name)")
			}
			if a.Below <= 0 {
				ef(a.Line, "p99_below: below must be a positive duration, got %v", a.Below)
			}
			if a.Instance != "" && !instances[a.Instance] {
				ef(a.Line, "p99_below references undeclared instance %q", a.Instance)
			}
		}
	}
	return errors.Join(errs...)
}

// sortedTimeline returns the events ordered by At (stable, so same-instant
// events keep file order).
func (sc *Scenario) sortedTimeline() []Event {
	evs := append([]Event(nil), sc.Timeline...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// ---------------------------------------------------------------------------
// `somasim validate` output.

// WriteValidation renders the validate verdict for one file — the fleet
// shape on success, every collected error on failure. Returns whether the
// scenario is valid.
func WriteValidation(w io.Writer, path string, sc *Scenario, err error) bool {
	if err != nil {
		fmt.Fprintf(w, "somasim: INVALID %s\n", path)
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Fprintf(w, "  %s\n", line)
		}
		return false
	}
	fmt.Fprintf(w, "somasim: OK %s\n", path)
	fmt.Fprintf(w, "  scenario: %s — %s\n", sc.Name, sc.Description)
	subs := 0
	for _, g := range sc.Fleet.Subscribers {
		subs += g.Count
	}
	shape := ""
	if sc.Fleet.Cluster {
		shape = ", clustered"
	}
	fmt.Fprintf(w, "  fleet: %d instance(s)%s, %d workload(s), %d subscriber(s)\n",
		len(sc.Fleet.Instances), shape, len(sc.Fleet.Workloads), subs)
	fmt.Fprintf(w, "  timeline: %d event(s) over %v (seed %d)\n", len(sc.Timeline), sc.Duration, sc.Seed)
	fmt.Fprintf(w, "  assertions: %d\n", len(sc.Asserts))
	return true
}
