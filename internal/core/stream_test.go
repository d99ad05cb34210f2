package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// fakeClock is a settable des.Clock for deterministic rollup timestamps.
type fakeClock struct {
	mu sync.Mutex
	t  float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) set(t float64) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Series unit tests.

func TestSplitSeriesPath(t *testing.T) {
	cases := []struct {
		path    string
		wantKey string
		wantT   float64
	}{
		{"PROC/cn01/123.500000/CPU Util", "PROC/cn01/CPU Util", 123.5},
		{"RP/summary/42.0000000/running", "RP/summary/running", 42},
		{"FOM/task.000001/rate/12.5", "FOM/task.000001/rate", 12.5},
		// No numeric segment: arrival time is used and the key is untouched.
		{"PROC/cn01/CPU Util", "PROC/cn01/CPU Util", 99},
		// Innermost (rightmost) numeric segment wins.
		{"A/1.5/B/2.5/C", "A/1.5/B/C", 2.5},
		// Timestamp at the very start or end of the path.
		{"3.25/load", "load", 3.25},
		{"load/3.25", "load", 3.25},
		// A path that is only a timestamp yields no key.
		{"7.5", "", 7.5},
		// Implausible timestamps stay in the key: negative or absurdly large
		// numeric segments must not reach the bucket rings (they used to
		// panic the publish path via negative / overflowed slot indexes).
		{"metrics/-5/foo", "metrics/-5/foo", 99},
		{"a/1e30/b", "a/1e30/b", 99},
		{"A/-5/B/2.5/C", "A/-5/B/C", 2.5},
	}
	for _, tc := range cases {
		key, ts := splitSeriesPath(tc.path, 99)
		if key != tc.wantKey || ts != tc.wantT {
			t.Errorf("splitSeriesPath(%q) = (%q, %g), want (%q, %g)",
				tc.path, key, ts, tc.wantKey, tc.wantT)
		}
	}
}

func TestMatchSeriesKey(t *testing.T) {
	cases := []struct {
		pattern, key string
		want         bool
	}{
		{"PROC/*/CPU Util", "PROC/cn01/CPU Util", true},
		{"PROC/*/CPU Util", "PROC/cn01/RAM Used", false},
		{"PROC/**", "PROC/cn01/CPU Util", true},
		{"**", "anything/at/all", true},
		{"PROC/*", "PROC/cn01/CPU Util", false}, // '*' is exactly one segment
		{"*/cn01/*", "PROC/cn01/CPU Util", true},
		{"PROC/cn01/CPU Util", "PROC/cn01/CPU Util", true},
		{"**/CPU Util", "PROC/cn01/CPU Util", true},
	}
	for _, tc := range cases {
		if got := matchSeriesKey(tc.pattern, tc.key); got != tc.want {
			t.Errorf("matchSeriesKey(%q, %q) = %v, want %v", tc.pattern, tc.key, got, tc.want)
		}
	}
}

func TestBucketRingDownsample(t *testing.T) {
	br := bucketRing{width: 1}
	// Four samples in window [2,3), two in [3,4).
	for _, p := range []SeriesPoint{{2.1, 10}, {2.4, 30}, {2.6, 20}, {2.9, 40}, {3.2, 5}, {3.8, 15}} {
		br.add(p.Time, p.Value)
	}
	got := br.collect(0)
	if len(got) != 2 {
		t.Fatalf("buckets = %d, want 2", len(got))
	}
	b := got[0]
	if b.Start != 2 || b.Min != 10 || b.Max != 40 || b.Mean != 25 || b.Count != 4 {
		t.Fatalf("bucket[0] = %+v", b)
	}
	b = got[1]
	if b.Start != 3 || b.Min != 5 || b.Max != 15 || b.Mean != 10 || b.Count != 2 {
		t.Fatalf("bucket[1] = %+v", b)
	}
	// A much newer sample evicts the wrapped slot; the late sample for the
	// evicted window is dropped silently.
	br.add(2+bucketCap, 99) // a generation on from window [2,3): same slot at any size
	br.add(2.5, 77)         // late: its window is gone
	got = br.collect(0)
	for _, b := range got {
		if b.Start == 2 {
			t.Fatalf("evicted window still present: %+v", b)
		}
		if b.Start == 2+bucketCap && (b.Count != 1 || b.Min != 99) {
			t.Fatalf("evicting sample mis-bucketed: %+v", b)
		}
	}
}

func TestBucketRingHostileTimestamps(t *testing.T) {
	// Defense in depth below the path parsing: samples with timestamps that
	// cannot be real (negative, beyond maxSeriesTime, NaN, ±Inf) are dropped
	// instead of indexing out of the ring.
	br := bucketRing{width: 1}
	for _, bad := range []float64{-5, -0.001, 1e30, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		br.add(bad, 1)
	}
	if got := br.collect(0); len(got) != 0 {
		t.Fatalf("hostile timestamps created buckets: %+v", got)
	}
	br.add(2.5, 7)
	got := br.collect(0)
	if len(got) != 1 || got[0].Start != 2 {
		t.Fatalf("sane sample after hostile ones: %+v", got)
	}
}

func TestPublishHostileTimestampPathNoPanic(t *testing.T) {
	// Regression: a client publish with a leaf path like "metrics/-5/foo"
	// used to produce a negative slot index and panic the whole service
	// (mercury dispatch has no recover). The segment now stays in the key
	// and the sample is stamped with the arrival time.
	clk := &fakeClock{}
	clk.set(42)
	svc, _ := newTestService(t, ServiceConfig{Clock: clk})
	for _, path := range []string{"metrics/-5/foo", "metrics/1e30/foo", "metrics/-0.5"} {
		n := conduit.NewNode()
		n.SetFloat(path, 1)
		if err := svc.Publish(NSHardware, n, 0); err != nil {
			t.Fatalf("publish %q: %v", path, err)
		}
	}
	se, err := svc.QuerySeries(NSHardware, "metrics/-5/foo", LevelRaw, 0)
	if err != nil {
		t.Fatalf("hostile-path series not arrival-stamped: %v", err)
	}
	if len(se.Points) != 1 || se.Points[0].Time != 42 {
		t.Fatalf("points = %+v, want one sample at arrival time 42", se.Points)
	}
}

func TestSeriesStoreRampRollup(t *testing.T) {
	// Synthetic ramp: v = 10*t sampled every 0.25 s for 20 s. The 1 s bucket
	// for [k, k+1) must hold min=10k, max=10(k+0.75), mean=10(k+0.375).
	st := newSeriesStore(0)
	for i := 0; i < 80; i++ {
		ts := float64(i) * 0.25
		st.observe([]byte("PROC/cn01/CPU Util"), ts, 10*ts)
	}
	_, buckets, ok := st.query("PROC/cn01/CPU Util", Level1s, 0)
	if !ok || len(buckets) != 20 {
		t.Fatalf("1s buckets = %d (ok=%v), want 20", len(buckets), ok)
	}
	for k, b := range buckets {
		fk := float64(k)
		if b.Start != fk || b.Count != 4 {
			t.Fatalf("bucket %d = %+v", k, b)
		}
		if math.Abs(b.Min-10*fk) > 1e-9 || math.Abs(b.Max-10*(fk+0.75)) > 1e-9 ||
			math.Abs(b.Mean-10*(fk+0.375)) > 1e-9 {
			t.Fatalf("bucket %d min/max/mean = %g/%g/%g", k, b.Min, b.Max, b.Mean)
		}
	}
	// 10 s level: two buckets of 40 samples each.
	_, b10, ok := st.query("PROC/cn01/CPU Util", Level10s, 0)
	if !ok || len(b10) != 2 || b10[0].Count != 40 || b10[1].Count != 40 {
		t.Fatalf("10s buckets = %+v", b10)
	}
	if b10[1].Start != 10 || b10[1].Min != 100 || math.Abs(b10[1].Max-197.5) > 1e-9 {
		t.Fatalf("10s bucket[1] = %+v", b10[1])
	}
	// Raw level honours 'after'.
	pts, _, ok := st.query("PROC/cn01/CPU Util", LevelRaw, 19)
	if !ok || len(pts) != 4 || pts[0].Time != 19 {
		t.Fatalf("raw after=19: %d points (ok=%v)", len(pts), ok)
	}
	// window() aggregates 1 s buckets.
	agg, ok := st.m["PROC/cn01/CPU Util"].b1.window(18, 20)
	if !ok || agg.Count != 8 || agg.Min != 180 {
		t.Fatalf("window = %+v (ok=%v)", agg, ok)
	}
	// Unknown key.
	if _, _, ok := st.query("nope", Level1s, 0); ok {
		t.Fatal("unknown key returned data")
	}
}

func TestSeriesStoreCapAndReset(t *testing.T) {
	st := newSeriesStore(3)
	for i := 0; i < 6; i++ {
		st.observe([]byte(fmt.Sprintf("k%d", i)), 1, 1)
	}
	if got := st.keysMatching(""); len(got) != 3 {
		t.Fatalf("series beyond cap created: %v", got)
	}
	st.reset()
	if got := st.keysMatching(""); len(got) != 0 {
		t.Fatalf("reset left series: %v", got)
	}
	// After reset the cap budget is available again.
	st.observe([]byte("fresh"), 1, 1)
	if got := st.keysMatching(""); len(got) != 1 {
		t.Fatalf("post-reset observe: %v", got)
	}
}

// ---------------------------------------------------------------------------
// Series over RPC.

// publishRamp publishes v = 10*t every 0.25 s of service time for secs
// seconds, with the timestamp embedded in the leaf path the way the paper's
// hardware layout does.
func publishRamp(t *testing.T, svc *Service, clk *fakeClock, secs int) {
	t.Helper()
	for i := 0; i < secs*4; i++ {
		ts := float64(i) * 0.25
		clk.set(ts)
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("PROC/cn01/%.6f/CPU Util", ts), 10*ts)
		if err := svc.Publish(NSHardware, n, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSeriesRPCDownsampledRamp(t *testing.T) {
	clk := &fakeClock{}
	svc, addr := newTestService(t, ServiceConfig{Clock: clk})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	publishRamp(t, svc, clk, 10)

	keys, err := client.SeriesKeys(NSHardware, "PROC/*/CPU Util")
	if err != nil || len(keys) != 1 || keys[0] != "PROC/cn01/CPU Util" {
		t.Fatalf("keys = %v, %v", keys, err)
	}
	se, err := client.Series(NSHardware, keys[0], Level1s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if se.Key != keys[0] || se.Level != Level1s || len(se.Bucket) != 10 {
		t.Fatalf("series = key %q level %q, %d buckets", se.Key, se.Level, len(se.Bucket))
	}
	for k, b := range se.Bucket {
		fk := float64(k)
		if b.Count != 4 || math.Abs(b.Min-10*fk) > 1e-9 ||
			math.Abs(b.Max-10*(fk+0.75)) > 1e-9 || math.Abs(b.Mean-10*(fk+0.375)) > 1e-9 {
			t.Fatalf("bucket %d = %+v", k, b)
		}
	}
	// Raw level round-trips points.
	raw, err := client.Series(NSHardware, keys[0], LevelRaw, 9)
	if err != nil || len(raw.Points) != 4 {
		t.Fatalf("raw = %d points, %v", len(raw.Points), err)
	}
	// Unknown key and bad level surface as errors; the unknown key as
	// ErrNoSeries over the wire, as in process.
	if _, err := client.Series(NSHardware, "no/such", Level1s, 0); !errors.Is(err, ErrNoSeries) {
		t.Fatalf("unknown key: %v, want ErrNoSeries", err)
	}
	if _, err := client.Series(NSHardware, keys[0], "5m", 0); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestSeriesDisabled(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{DisableRollups: true})
	if _, err := svc.QuerySeries(NSHardware, "k", Level1s, 0); err == nil {
		t.Fatal("rollups disabled but query succeeded")
	}
	// Publishing still works without rollups.
	n := conduit.NewNode()
	n.SetFloat("PROC/cn01/1.0/CPU Util", 50)
	if err := svc.Publish(NSHardware, n, 0); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Alerts.

func TestAlertRuleValidate(t *testing.T) {
	bad := []AlertRule{
		{NS: NSHardware, Pattern: "*", Op: ">"},                  // no name
		{Name: "r", NS: "bogus", Pattern: "*", Op: ">"},          // bad ns
		{Name: "r", NS: NSHardware, Op: ">"},                     // no pattern
		{Name: "r", NS: NSHardware, Pattern: "*", Op: "between"}, // bad op
		{Name: "r", NS: NSAlerts, Pattern: "*", Op: ">"},         // reserved ns
	}
	for i, r := range bad {
		if err := r.validate(); err == nil {
			t.Errorf("rule %d validated: %+v", i, r)
		}
	}
	ok := AlertRule{Name: "r", NS: NSHardware, Pattern: "*", Op: "<"}
	if err := ok.validate(); err != nil {
		t.Fatal(err)
	}
	if ok.WindowSec != 1 || ok.Severity != DefaultAlertSeverity {
		t.Fatalf("defaults not applied: %+v", ok)
	}
}

func TestAlertFiringResolvedTransitions(t *testing.T) {
	clk := &fakeClock{}
	svc, addr := newTestService(t, ServiceConfig{Clock: clk})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rule := AlertRule{
		Name: "cpu-hot", NS: NSHardware, Pattern: "PROC/*/CPU Util",
		Op: ">", Threshold: 80, WindowSec: 2, Severity: "critical",
	}
	if err := client.SetAlert(rule); err != nil {
		t.Fatal(err)
	}

	// Follow the reserved alerts stream locally.
	ch, cancel, err := svc.SubscribeLocal(NSAlerts)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	publish := func(ts, v float64) {
		clk.set(ts)
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("PROC/cn01/%.6f/CPU Util", ts), v)
		if err := svc.Publish(NSHardware, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	nextTransition := func() Update {
		t.Helper()
		select {
		case u := <-ch:
			return u
		case <-time.After(2 * time.Second):
			t.Fatal("no alert transition pushed")
		}
		return Update{}
	}

	// Healthy first sight: standing recorded, no transition published.
	publish(1, 50)
	rules, states, err := client.Alerts()
	if err != nil || len(rules) != 1 || len(states) != 1 {
		t.Fatalf("rules=%d states=%d err=%v", len(rules), len(states), err)
	}
	if states[0].Firing || states[0].Key != "PROC/cn01/CPU Util" {
		t.Fatalf("initial standing = %+v", states[0])
	}

	// Window mean crosses the threshold across windows → firing.
	publish(2, 95)
	publish(3, 97)
	u := nextTransition()
	if !u.Alert || u.NS != NSHardware {
		t.Fatalf("transition update = %+v", u)
	}
	if state, _ := u.Tree.StringVal("state"); state != "firing" {
		t.Fatalf("state = %q, want firing", state)
	}
	if sev, _ := u.Tree.StringVal("severity"); sev != "critical" {
		t.Fatalf("severity = %q", sev)
	}
	_, states, _ = client.Alerts()
	if len(states) != 1 || !states[0].Firing {
		t.Fatalf("standing after fire = %+v", states)
	}

	// Mean recedes in later windows → resolved.
	publish(6, 10)
	publish(7, 12)
	u = nextTransition()
	if state, _ := u.Tree.StringVal("state"); state != "resolved" {
		t.Fatalf("state = %q, want resolved", state)
	}
	_, states, _ = client.Alerts()
	if len(states) != 1 || states[0].Firing {
		t.Fatalf("standing after resolve = %+v", states)
	}

	// Rule removal clears standing; removing twice errors.
	if err := client.RemoveAlert("cpu-hot"); err != nil {
		t.Fatal(err)
	}
	rules, states, _ = client.Alerts()
	if len(rules) != 0 || len(states) != 0 {
		t.Fatalf("after remove: rules=%d states=%d", len(rules), len(states))
	}
	if err := client.RemoveAlert("cpu-hot"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestResetClearsAlertStandings(t *testing.T) {
	// Regression: instance.reset() cleared the rollup store but left the
	// alert engine's standings, so an alert firing at reset time stayed
	// firing forever (evaluate only revisits keys touched by new publishes).
	clk := &fakeClock{}
	svc, _ := newTestService(t, ServiceConfig{Clock: clk})
	rule := AlertRule{
		Name: "cpu-hot", NS: NSHardware, Pattern: "PROC/*/CPU Util",
		Op: ">", Threshold: 80, WindowSec: 2,
	}
	if err := svc.SetAlert(rule); err != nil {
		t.Fatal(err)
	}
	publish := func(ts, v float64) {
		clk.set(ts)
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("PROC/cn01/%.6f/CPU Util", ts), v)
		if err := svc.Publish(NSHardware, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	publish(1, 95)
	publish(2, 97)
	_, states := svc.Alerts()
	if len(states) != 1 || !states[0].Firing {
		t.Fatalf("standing before reset = %+v", states)
	}
	if err := svc.ResetNamespace(NSHardware); err != nil {
		t.Fatal(err)
	}
	rules, states := svc.Alerts()
	if len(rules) != 1 {
		t.Fatalf("reset removed the rule itself: %+v", rules)
	}
	if len(states) != 0 {
		t.Fatalf("standings survived reset: %+v", states)
	}
	// The rule still works against fresh post-reset data.
	publish(10, 95)
	publish(11, 97)
	_, states = svc.Alerts()
	if len(states) != 1 || !states[0].Firing {
		t.Fatalf("standing after reset + refire = %+v", states)
	}
}

func TestResetBetweenFoldAndEvaluate(t *testing.T) {
	// A reset that lands between a run's fold and its evaluation removes the
	// series the fold handed back: the evaluation must not raise a standing
	// from them, as the reset dropped every standing their data justified.
	st := newSeriesStore(0)
	e := newAlertEngine(nil)
	if err := e.set(AlertRule{Name: "hot", NS: NSHardware, Pattern: "PROC/*/CPU Util", Op: ">", Threshold: 80}); err != nil {
		t.Fatal(err)
	}
	n := conduit.NewNode()
	n.SetFloat("PROC/cn01/5.000000/CPU Util", 95)
	watched, maxT := st.ingest(5, []pub{{ns: NSHardware, enc: n.EncodeBinary()}}, e.armed.Load().of(NSHardware), nil)
	if len(watched) != 1 {
		t.Fatalf("fold handed back %d watched series, want 1", len(watched))
	}
	st.reset()
	e.resetNamespace(NSHardware)
	e.evaluate(NSHardware, st, watched, maxT)
	if _, states := e.list(); len(states) != 0 {
		t.Fatalf("standings raised from series a reset removed: %+v", states)
	}
}

func TestAlertWatchFollowsRuleSet(t *testing.T) {
	// A series caches which armed rules match its key, judged once per rule
	// set. Replacing a rule's pattern, removing the rule, re-adding it and
	// resetting the namespace must each move the watched series, the
	// standings and the transitions with the rule set in force at the next
	// publish. A workflow rule matching everything never watches a
	// hardware series.
	clk := &fakeClock{}
	svc, _ := newTestService(t, ServiceConfig{Clock: clk})
	ch, cancel, err := svc.SubscribeLocal(NSAlerts)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const cpu, mem = "PROC/cn01/CPU Util", "PROC/cn01/Mem Util"
	publish := func(ts float64) {
		clk.set(ts)
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("PROC/cn01/%.6f/CPU Util", ts), 95)
		n.SetFloat(fmt.Sprintf("PROC/cn01/%.6f/Mem Util", ts), 95)
		n.SetFloat(fmt.Sprintf("PROC/cn01/%.6f/Disk Util", ts), 10)
		if err := svc.Publish(NSHardware, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.instances[NSHardware].rollup
	watched := func() []string {
		st.mu.Lock()
		defer st.mu.Unlock()
		out := []string{}
		for key, se := range st.m {
			if len(se.rules) > 0 {
				out = append(out, key)
			}
		}
		sort.Strings(out)
		return out
	}
	standings := func() []string {
		_, states := svc.Alerts()
		out := []string{}
		for _, s := range states {
			out = append(out, fmt.Sprintf("%s %s firing=%v", s.Rule, s.Key, s.Firing))
		}
		return out
	}
	transition := func() string {
		select {
		case u := <-ch:
			rule, _ := u.Tree.StringVal("rule")
			key, _ := u.Tree.StringVal("key")
			state, _ := u.Tree.StringVal("state")
			return rule + " " + key + " " + state
		case <-time.After(2 * time.Second):
			return "(none)"
		}
	}
	step := func(name string, ts float64, wantWatched, wantStandings, wantTransitions []string) {
		t.Helper()
		publish(ts)
		if got := watched(); !reflect.DeepEqual(got, wantWatched) {
			t.Fatalf("%s: watched series %q, want %q", name, got, wantWatched)
		}
		if got := standings(); !reflect.DeepEqual(got, wantStandings) {
			t.Fatalf("%s: standings %q, want %q", name, got, wantStandings)
		}
		for _, want := range wantTransitions {
			if got := transition(); got != want {
				t.Fatalf("%s: transition %q, want %q", name, got, want)
			}
		}
	}
	rule := AlertRule{Name: "hot", NS: NSHardware, Pattern: "PROC/*/CPU Util", Op: ">", Threshold: 80, WindowSec: 1}
	for _, r := range []AlertRule{rule, {Name: "wf", NS: NSWorkflow, Pattern: "**", Op: ">", Threshold: 0}} {
		if err := svc.SetAlert(r); err != nil {
			t.Fatal(err)
		}
	}
	step("first rule set", 1, []string{cpu}, []string{"hot " + cpu + " firing=true"}, []string{"hot " + cpu + " firing"})

	rule.Pattern = "PROC/*/Mem Util"
	if err := svc.SetAlert(rule); err != nil {
		t.Fatal(err)
	}
	step("pattern replaced", 2, []string{mem}, []string{"hot " + mem + " firing=true"}, []string{"hot " + mem + " firing"})

	if err := svc.RemoveAlert("hot"); err != nil {
		t.Fatal(err)
	}
	step("rule removed", 3, []string{}, []string{}, nil)

	if err := svc.SetAlert(rule); err != nil {
		t.Fatal(err)
	}
	step("rule re-added", 4, []string{mem}, []string{"hot " + mem + " firing=true"}, []string{"hot " + mem + " firing"})

	if err := svc.ResetNamespace(NSHardware); err != nil {
		t.Fatal(err)
	}
	if got := watched(); len(got) != 0 {
		t.Fatalf("reset left watched series %q", got)
	}
	if got := standings(); len(got) != 0 {
		t.Fatalf("reset left standings %q", got)
	}
	step("after reset", 5, []string{mem}, []string{"hot " + mem + " firing=true"}, []string{"hot " + mem + " firing"})

	select {
	case u := <-ch:
		t.Fatalf("unexpected transition %v", u.Tree)
	case <-time.After(200 * time.Millisecond):
	}
}

// ---------------------------------------------------------------------------
// Subscriptions.

func TestTopicPrefixDelimited(t *testing.T) {
	// Subscriptions match topics by raw string prefix, so per-namespace
	// topics must end in a delimiter: without it a namespace would also
	// receive any future namespace whose name it prefixes.
	p, err := subPrefix(NSHardware)
	if err != nil {
		t.Fatal(err)
	}
	if p != "ns/hardware/" {
		t.Fatalf("subPrefix(hardware) = %q, want trailing delimiter", p)
	}
	if strings.HasPrefix("ns/hardware2/", p) {
		t.Fatalf("prefix %q cross-matches a prefixed namespace's topic", p)
	}
	for ns, want := range map[Namespace]string{"": "ns/", NSAlerts: "alerts/"} {
		if got, err := subPrefix(ns); err != nil || got != want {
			t.Fatalf("subPrefix(%q) = %q, %v; want %q", ns, got, err, want)
		}
	}
	for _, topic := range topics {
		if !strings.HasSuffix(topic, "/") {
			t.Fatalf("topic %q has no trailing delimiter", topic)
		}
	}
	if _, err := subPrefix("bogus"); err == nil {
		t.Fatal("subPrefix accepted an unknown namespace")
	}
}

func TestSubscribePushE2ETCP(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	sub, err := client.Subscribe(ctx, NSHardware, "")
	if err != nil {
		t.Fatal(err)
	}

	// The publish must arrive pushed — well under any polling interval.
	n := conduit.NewNode()
	n.SetFloat("PROC/cn01/1.000000/CPU Util", 42)
	if err := svc.Publish(NSHardware, n, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case u := <-sub.C:
		if u.NS != NSHardware || u.Alert {
			t.Fatalf("update = %+v", u)
		}
		if v, ok := u.Tree.Float("PROC/cn01/1.000000/CPU Util"); !ok || v != 42 {
			t.Fatalf("tree = %s", u.Tree.Format())
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("update took %s — not push delivery", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pushed update")
	}

	// A publish to a different namespace is not delivered.
	other := conduit.NewNode()
	other.SetString("RP/task.000000/1.0", "launch")
	svc.Publish(NSWorkflow, other, 0)
	select {
	case u := <-sub.C:
		t.Fatalf("unsubscribed namespace delivered: %+v", u)
	case <-time.After(300 * time.Millisecond):
	}

	sub.Close()
	if _, ok := <-sub.C; ok {
		t.Fatal("channel open after Close")
	}
}

func TestSubscribePatternFilter(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sub, err := client.Subscribe(context.Background(), NSHardware, "PROC/*/CPU Util")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	miss := conduit.NewNode()
	miss.SetFloat("PROC/cn01/RAM Used", 1)
	svc.Publish(NSHardware, miss, 0)
	hit := conduit.NewNode()
	hit.SetFloat("PROC/cn02/CPU Util", 88)
	svc.Publish(NSHardware, hit, 0)

	select {
	case u := <-sub.C:
		if _, ok := u.Tree.Float("PROC/cn02/CPU Util"); !ok {
			t.Fatalf("filtered update leaked: %s", u.Tree.Format())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("matching update not delivered")
	}
	select {
	case u := <-sub.C:
		t.Fatalf("non-matching update delivered: %s", u.Tree.Format())
	case <-time.After(200 * time.Millisecond):
	}
}

func TestSubscribeAllNamespaces(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sub, err := client.Subscribe(context.Background(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for _, ns := range []Namespace{NSWorkflow, NSHardware} {
		n := conduit.NewNode()
		n.SetFloat("x/1.0", 1)
		svc.Publish(ns, n, 0)
	}
	seen := map[Namespace]bool{}
	for len(seen) < 2 {
		select {
		case u := <-sub.C:
			seen[u.NS] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("saw %v, want both namespaces", seen)
		}
	}
}

func TestSubscribeUnknownNamespace(t *testing.T) {
	_, addr := newTestService(t, ServiceConfig{})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Subscribe(context.Background(), "bogus", ""); err == nil {
		t.Fatal("bogus namespace subscription accepted")
	}
}

func TestWatchStopsOnCallbackError(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stop := errors.New("enough")
	done := make(chan error, 1)
	go func() {
		done <- client.Watch(context.Background(), NSHardware, "", func(Update) error {
			return stop
		})
	}()
	n := conduit.NewNode()
	n.SetFloat("PROC/cn01/1.0/CPU Util", 1)
	// Publish until the watcher is subscribed and has seen one update.
	for {
		svc.Publish(NSHardware, n, 0)
		select {
		case err := <-done:
			if !errors.Is(err, stop) {
				t.Fatalf("watch = %v", err)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestSubscribeResubscribesAfterRestart(t *testing.T) {
	// The service dies and comes back at the same address; the subscription
	// redials and keeps delivering without the caller doing anything.
	const addr = "inproc://svc-restart"
	svc1 := NewService(ServiceConfig{})
	if _, err := svc1.Listen(addr); err != nil {
		t.Fatal(err)
	}
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sub, err := client.Subscribe(context.Background(), NSHardware, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	n := conduit.NewNode()
	n.SetFloat("PROC/cn01/1.0/CPU Util", 1)
	svc1.Publish(NSHardware, n, 0)
	select {
	case <-sub.C:
	case <-time.After(5 * time.Second):
		t.Fatal("no update before restart")
	}

	svc1.Close()
	svc2 := NewService(ServiceConfig{})
	if _, err := svc2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc2.Close() })

	// Publish until the resubscribe lands and an update flows again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := conduit.NewNode()
		m.SetFloat("PROC/cn01/2.0/CPU Util", 2)
		svc2.Publish(NSHardware, m, 0)
		select {
		case u, ok := <-sub.C:
			if !ok {
				t.Fatal("subscription channel closed across restart")
			}
			if v, ok := u.Tree.Float("PROC/cn01/2.0/CPU Util"); ok && v == 2 {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no update after service restart")
		}
	}
}

// ---------------------------------------------------------------------------
// Flush error propagation (regression: a drained queue must not swallow
// failures of the publishes it drained).

func TestFlushReportsQueuedPublishFailure(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	client, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableBatch(BatchConfig{})

	// A healthy queued publish flushes clean.
	n := conduit.NewNode()
	n.SetFloat("PROC/cn01/1.0/CPU Util", 1)
	if err := client.Publish(NSHardware, n); err != nil {
		t.Fatal(err)
	}
	if err := client.Flush(); err != nil {
		t.Fatalf("flush of healthy publish = %v", err)
	}

	// Stop the service underneath queued publishes: Flush must surface the
	// failure instead of draining silently.
	if err := client.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !svc.Stopped() {
		t.Fatal("service not stopped")
	}
	m := conduit.NewNode()
	m.SetFloat("PROC/cn01/2.0/CPU Util", 2)
	if err := client.Publish(NSHardware, m); err != nil {
		t.Fatal(err) // enqueue succeeds; the failure surfaces at Flush
	}
	if err := client.Flush(); err == nil {
		t.Fatal("flush swallowed a queued publish failure")
	}
	// The error was consumed: a later flush with nothing queued is clean.
	if err := client.Flush(); err != nil {
		t.Fatalf("second flush = %v", err)
	}
}
