// Command somaperf is the repository's benchmark: it builds somad and
// somagate from the tree, starts the shipped-configuration fleet as child
// processes, drives one of four open-loop workloads at a fixed offered
// rate, checks the service's answers against a generator-side oracle, and
// prints every metric by name and unit. See bench/README.md.
//
// Usage (from the repository root):
//
//	go run -C bench ./somaperf                                   # all four workloads, end to end
//	go run -C bench ./somaperf -workload firehose -seed 7        # one workload
//	go run -C bench ./somaperf -workload firehose -trace 1       # per-layer numbers + span file
//	go run -C bench ./somaperf aa -sets 2 -runs 5                # A/A repeatability check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named, united measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Shape of a run. An end-to-end run measures fleetsPerRun independent
// fleets one after another and reports medians over all their slices: on a
// shared two-core box a single process carries a bias of its own (memory
// placement, heap size after the preload) that no amount of time inside
// that process averages away, and the set-up time gets its repeats for
// free. The traced run uses one fleet for the whole window.
const (
	fleetsPerRun = 3
	// Slices are about a second long: short enough that a burst of host
	// interference lasting a few seconds taints a minority of them and the
	// median ignores it, long enough to hold a hundred probes each.
	slicesPerRun = 15
	coldMs       = 1000 // driven and discarded ahead of every window
)

func main() {
	// Children are killed on every exit path: normal return and panic on
	// this goroutine (deferred), SIGINT/SIGTERM (handler), and SIGKILL of
	// the harness itself (Pdeathsig on each child).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "somaperf: %s: killing the fleet\n", sig)
		killAllGroups()
		os.Exit(130)
	}()
	code := func() (code int) {
		defer killAllGroups()
		if len(os.Args) > 1 && os.Args[1] == "aa" {
			return runAA(os.Args[2:])
		}
		return runMain(os.Args[1:])
	}()
	os.Exit(code)
}

func runMain(argv []string) int {
	fs := flag.NewFlagSet("somaperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: firehose, monitors, dashboard or cluster3 (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 15, "measured window in seconds, shared by three fleets end to end, cut into fifteen slices")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with no harness spans; 1: the traced run's per-layer metrics")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "somaperf: need 1 <= -seconds <= 60, -trace 0 or 1, and no positional arguments")
		return 2
	}
	ws := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "somaperf: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}
	env, err := prepare()
	if err != nil {
		fmt.Fprintf(os.Stderr, "somaperf: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range ws {
		var res *result
		if *trace == 1 {
			res, err = env.runTraced(w, *seed, *seconds)
		} else {
			res, err = env.runEndToEnd(w, *seed, *seconds)
		}
		if err != nil {
			// No result line: a run that could not be carried out is not a
			// measurement.
			fmt.Fprintf(os.Stderr, "somaperf: %s: %v\n", w.name, err)
			return 1
		}
		printResult(w, res)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// env is what every run of this invocation shares.
type env struct {
	root   string // repository root
	binDir string // built somad and somagate
	outDir string // bench/out: child logs and span files
	// start brings up the fleet a workload asks for: child processes of the
	// built binaries, except in tests.
	start func(*workload) (*fleet, error)
}

// prepare builds the fleet binaries and clears the ground, all before any
// clock starts.
func prepare() (*env, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out")}
	if e.binDir, err = buildFleetBinaries(root); err != nil {
		return nil, err
	}
	for _, r := range reapLeftovers(e.binDir) {
		fmt.Fprintf(os.Stderr, "somaperf: %s\n", r)
	}
	e.start = func(w *workload) (*fleet, error) {
		return startProcFleet(e.binDir, filepath.Join(e.outDir, w.name+".log"), w.fleet)
	}
	return e, nil
}

// setUp brings one fleet to ready and returns the session and how long it
// took from the first child's exec: listening, cluster converged, clients
// dialled, rule/subscriber/WebSocket armed, the fixed preload acknowledged
// and the first full read served.
func (e *env) setUp(w *workload, seed int64, tly *tally) (*session, float64, error) {
	st := w.newStream(seed) // inputs are generated outside the clock
	f, err := e.start(w)
	if err != nil {
		return nil, 0, err
	}
	s, err := w.connect(f, st, tly)
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	if err := s.preload(); err != nil {
		s.close()
		f.stop()
		return nil, 0, err
	}
	return s, time.Since(f.t0).Seconds(), nil
}

// windowPhase lays out one fleet's share of a run: seconds of measured
// window cut into the given number of slices, behind the cold stretch.
func windowPhase(seconds float64, slices int) phase {
	return phase{
		coldTicks:  coldMs,
		sliceTicks: int(seconds * 1000 / float64(slices)),
		slices:     slices,
	}
}

// runEndToEnd is one end-to-end run: fleetsPerRun times over, the fleet is
// set up (timed), driven through a paced phase with no harness spans,
// judged by the oracle and torn down. The window is -seconds in total.
func (e *env) runEndToEnd(w *workload, seed int64, seconds int) (*result, error) {
	tly := &tally{}
	ph := windowPhase(float64(seconds)/fleetsPerRun, slicesPerRun/fleetsPerRun)
	fmt.Fprintf(os.Stderr, "somaperf: %s: %d fleets, each set up, driven %.1fs cold (discarded) then %.1fs measured in %d slices\n",
		w.name, fleetsPerRun, float64(coldMs)/1000, float64(seconds)/fleetsPerRun, ph.slices)
	var setups []float64
	all := &windowResult{}
	for i := 0; i < fleetsPerRun; i++ {
		win, took, err := e.measureFleet(w, seed, ph, tly)
		if err != nil {
			return nil, fmt.Errorf("fleet %d: %w", i+1, err)
		}
		setups = append(setups, took)
		all.merge(win)
	}
	return endToEndResult(w, setups, all, tly), nil
}

// measureFleet takes one fleet from exec to teardown.
func (e *env) measureFleet(w *workload, seed int64, ph phase, tly *tally) (*windowResult, float64, error) {
	s, took, err := e.setUp(w, seed, tly)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	defer s.f.stop()
	defer s.close()
	win, err := s.runWindow(ph)
	if err != nil {
		return nil, 0, err
	}
	s.verify()
	return win, took, nil
}

// endToEndMetrics names the gate metrics in reporting order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"svc_cpu_us_per_pub", "us"},
	{"ack_p50_ms", "ms"},
	{"fresh_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"rss_mean_mb", "MB"},
}

func endToEndResult(w *workload, setups []float64, win *windowResult, tly *tally) *result {
	vals := map[string]float64{
		"setup_s":            median(setups),
		"svc_cpu_us_per_pub": median(win.cpuUsPerPub),
		"ack_p50_ms":         median(flatten(win.ack)),
		"fresh_p50_ms":       median(flatten(win.fresh)),
		"read_p50_ms":        median(flatten(win.read)),
		"rss_mean_mb":        mean(win.rssMB),
	}
	res := &result{Metrics: map[string]metric{}}
	for _, m := range endToEndMetrics {
		v := vals[m.name]
		if math.IsNaN(v) || v <= 0 {
			tly.fail("metric %s collected no usable samples", m.name)
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	health(w, win, tly)
	finish(res, tly)
	return res
}

// health reports the harness's own condition. A generator that woke late on
// more than 1% of its ticks, or ended with a backlog, did not offer the load
// it claims: the run is void and says so.
func health(w *workload, win *windowResult, tly *tally) {
	lateFrac := float64(win.lateTicks) / math.Max(1, float64(win.ticks))
	fmt.Fprintf(os.Stderr, "somaperf: %s: generator late p99 %.3fms, %.4f of ticks >%s late, backlog at end %d, %d publishes in window\n",
		w.name, quantile(win.lateMs, 0.99), lateFrac, lateLimit, win.backlogEnd, win.windowPubs)
	fmt.Fprintf(os.Stderr, "somaperf: %s: per-slice svc_cpu_us_per_pub %.3f\n", w.name, win.cpuUsPerPub)
	if win.shed > 0 {
		fmt.Fprintf(os.Stderr, "somaperf: %s: %d of %d markers were shed by the push channel (counted drops, no freshness sample)\n",
			w.name, win.shed, win.markers)
	}
	if lateFrac > 0.01 || win.backlogEnd > 0 {
		fmt.Fprintf(os.Stderr, "somaperf: %s: VOID RUN: the offered rate was not sustained; latency rows are not measurements\n", w.name)
	}
}

func finish(res *result, tly *tally) {
	res.Attempted = tly.attempted.Load()
	res.Failed = tly.failed.Load()
	res.Correct = res.Failed == 0
	if n := tly.refused.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "somaperf: %d of the failed operations were refusals (HTTP 429)\n", n)
	}
	tly.mu.Lock()
	for _, e := range tly.errs {
		fmt.Fprintf(os.Stderr, "somaperf: FAILED: %s\n", e)
	}
	tly.mu.Unlock()
}

// printResult prints every metric by name and unit, then the result line.
func printResult(w *workload, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d operations attempted, %d failed, fail_frac %.6f\n",
		w.name, res.Attempted, res.Failed, float64(res.Failed)/math.Max(1, float64(res.Attempted)))
	fmt.Printf("  fresh = %s; read = %s\n", w.fresh, w.read)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res) // a map of floats and strings cannot fail to marshal
	fmt.Println(string(line))
}
