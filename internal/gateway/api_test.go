package gateway

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// TestAlertsBodyNamesRulesWithNoRule: with no rule installed /api/alerts
// still carries "rules" (as []), the substring the benchmark's dashboard
// workload fails a read without.
func TestAlertsBodyNamesRulesWithNoRule(t *testing.T) {
	tg := newTestGateway(t, Config{})
	code, body := tg.get(t, "/api/alerts")
	if code != 200 || !strings.Contains(string(body), `"rules":[]`) {
		t.Fatalf("/api/alerts with no rule: %d %s", code, body)
	}
}

// apiFixture is a gateway over a service holding one of everything the
// control-plane routes answer: an alert rule, a publish, a kept (failed)
// trace of two spans, and a counter, gauge and traced histogram under
// names no other code uses.
type apiFixture struct {
	tg      *testGateway
	cli     *core.Client
	traceID telemetry.ID
}

const (
	fixCounter = "gateway_test.answers.counter"
	fixGauge   = "gateway_test.answers.gauge"
	fixHist    = "gateway_test.answers.latency"
)

func newAPIFixture(t *testing.T) *apiFixture {
	t.Helper()
	tg := newTestGateway(t, Config{})
	// The gateway's own policy, so the client half of a health report (the
	// breaker) matches the gateway's client.
	cli, err := core.ConnectPolicy(tg.addr, nil, Policy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := cli.SetAlert(core.AlertRule{
		Name: "hot", NS: core.NSHardware, Pattern: "PROC/**",
		Op: ">", Threshold: 90, WindowSec: 5, Severity: "critical",
	}); err != nil {
		t.Fatal(err)
	}
	tg.publish(t, core.NSHardware, "PROC/cn01/CPU Util", 12)

	reg := telemetry.Default()
	ctx, root := telemetry.StartSpan(context.Background(), "gateway_test.root")
	_, child := telemetry.StartSpan(ctx, "gateway_test.child")
	child.SetCount(3)
	child.End()
	root.Fail() // an errored trace is always kept
	id := root.Context().TraceID
	root.End()
	reg.Counter(fixCounter).Add(7)
	reg.Gauge(fixGauge).Set(-3)
	reg.Histogram(fixHist).ObserveTrace(1500*time.Microsecond, id)
	return &apiFixture{tg: tg, cli: cli, traceID: telemetry.ID(id)}
}

// checkRoute decodes the body of route into a T and compares it with what
// the Client method answered. pin, when set, restricts or copies the fields
// that move between two calls, on both values, before they are compared.
func checkRoute[T any](t *testing.T, tg *testGateway, route string, answer func() (T, error), pin func(got, want *T)) {
	t.Helper()
	var got T
	tg.getJSON(t, route, &got)
	want, err := answer()
	if err != nil {
		t.Fatal(err)
	}
	if pin != nil {
		pin(&got, &want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s decodes to\n%+v\nwant the Client's answer\n%+v", route, got, want)
	}
}

// utc drops the location a time was decoded with: conduit decodes times in
// the local zone, and encoding/json reads back the offset RFC 3339 wrote.
func utc(spans []telemetry.SpanSnapshot) {
	for i := range spans {
		spans[i].Start = spans[i].Start.UTC()
	}
}

// TestControlPlaneRoutesServeAnswerTypes: each control-plane route's body
// decodes with encoding/json into the RPC's own answer type (inside the
// route's thin wrapper, where it has one) and equals what the Client method
// returned.
func TestControlPlaneRoutesServeAnswerTypes(t *testing.T) {
	f := newAPIFixture(t)
	type alerts struct {
		Rules  []core.AlertRule  `json:"rules"`
		States []core.AlertState `json:"states"`
	}
	type stats struct {
		Namespaces []core.InstanceStats `json:"namespaces"`
	}
	type health struct {
		core.HealthReport
		WSActive int64 `json:"ws_active"`
	}
	routes := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"alerts", func(t *testing.T) {
			checkRoute(t, f.tg, "/api/alerts", func() (alerts, error) {
				rules, states, err := f.cli.Alerts()
				return alerts{rules, states}, err
			}, func(got, want *alerts) {
				if want.States == nil {
					want.States = []core.AlertState{}
				}
			})
		}},
		{"stats", func(t *testing.T) {
			checkRoute(t, f.tg, "/api/stats", func() (stats, error) {
				m, err := f.cli.Stats()
				var out stats
				for _, ns := range core.Namespaces {
					out.Namespaces = append(out.Namespaces, m[ns])
				}
				return out, err
			}, nil)
		}},
		{"health", func(t *testing.T) {
			checkRoute(t, f.tg, "/api/health", func() (health, error) {
				h, err := f.cli.Health()
				return health{HealthReport: h}, err
			}, func(got, want *health) {
				want.Spill = core.SpillStats{} // json:"-": the client's own buffer
				want.UptimeSec, want.CallsServed = got.UptimeSec, got.CallsServed
				if got.UptimeSec <= 0 || got.CallsServed <= 0 {
					t.Errorf("health uptime %g, calls %d: want both above 0", got.UptimeSec, got.CallsServed)
				}
			})
		}},
		{"telemetry", func(t *testing.T) {
			checkRoute(t, f.tg, "/api/telemetry", func() (telemetry.Snapshot, error) {
				snap, err := f.cli.Telemetry()
				if err != nil {
					return telemetry.Snapshot{}, err
				}
				return *snap, nil
			}, func(got, want *telemetry.Snapshot) {
				for _, s := range []*telemetry.Snapshot{got, want} {
					s.Counters = map[string]int64{fixCounter: s.Counters[fixCounter]}
					s.Gauges = map[string]float64{fixGauge: s.Gauges[fixGauge]}
					s.Histograms = map[string]telemetry.HistogramSnapshot{fixHist: s.Histograms[fixHist]}
					s.Spans = slices.DeleteFunc(s.Spans, func(sp telemetry.SpanSnapshot) bool { return sp.TraceID != f.traceID })
					utc(s.Spans)
				}
				if len(want.Spans) != 2 || len(want.Histograms[fixHist].Exemplars) != 1 {
					t.Errorf("fixture missing from the answer: %d spans, exemplars %+v", len(want.Spans), want.Histograms[fixHist].Exemplars)
				}
			})
		}},
		{"traces", func(t *testing.T) {
			type traces struct {
				Traces []telemetry.TraceSummary `json:"traces"`
			}
			checkRoute(t, f.tg, "/api/traces?limit=1000", func() (traces, error) {
				sums, err := f.cli.Traces(1000, false)
				return traces{sums}, err
			}, func(got, want *traces) {
				for _, s := range []*traces{got, want} {
					s.Traces = slices.DeleteFunc(s.Traces, func(s telemetry.TraceSummary) bool { return s.TraceID != f.traceID })
					for i := range s.Traces {
						s.Traces[i].Start = s.Traces[i].Start.UTC()
					}
				}
				if len(want.Traces) != 1 {
					t.Errorf("kept trace %016x listed %d times", uint64(f.traceID), len(want.Traces))
				}
			})
		}},
		{"trace", func(t *testing.T) {
			checkRoute(t, f.tg, fmt.Sprintf("/api/traces/%016x", uint64(f.traceID)), func() (telemetry.Trace, error) {
				return f.cli.Trace(uint64(f.traceID))
			}, func(got, want *telemetry.Trace) {
				for _, tr := range []*telemetry.Trace{got, want} {
					tr.Start = tr.Start.UTC()
					utc(tr.Spans)
				}
			})
		}},
	}
	for _, r := range routes {
		t.Run(r.name, r.run)
	}
}

// TestTraceIDsAreHexStrings: a trace id read from /api/traces fetches that
// trace through /api/traces/{id}, and no id or epoch in any control-plane
// body is a bare JSON number (JavaScript misreads integers past 2^53).
func TestTraceIDsAreHexStrings(t *testing.T) {
	f := newAPIFixture(t)
	var list struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Root    string `json:"root"`
		} `json:"traces"`
	}
	f.tg.getJSON(t, "/api/traces?limit=1000", &list)
	id := ""
	for _, tr := range list.Traces {
		if tr.Root == "gateway_test.root" {
			id = tr.TraceID
		}
	}
	if len(id) != 16 {
		t.Fatalf("kept trace missing from /api/traces or its id not 16 hex digits: %q in %+v", id, list.Traces)
	}
	var tr struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			SpanID string `json:"span_id"`
			Parent string `json:"parent"`
			Name   string `json:"name"`
		} `json:"spans"`
	}
	f.tg.getJSON(t, "/api/traces/"+id, &tr)
	if tr.TraceID != id || len(tr.Spans) != 2 {
		t.Fatalf("/api/traces/%s answered trace %s with %d spans, want 2", id, tr.TraceID, len(tr.Spans))
	}
	byID := map[string]string{}
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp.Name
	}
	for _, sp := range tr.Spans {
		if sp.Name == "gateway_test.child" && byID[sp.Parent] != "gateway_test.root" {
			t.Errorf("child span's parent %q is not the root's span id (%v)", sp.Parent, byID)
		}
	}
	for _, route := range []string{"/api/alerts", "/api/stats", "/api/health", "/api/telemetry",
		"/api/telemetry?self=1", "/api/traces?limit=1000", "/api/traces/" + id} {
		var body any
		f.tg.getJSON(t, route, &body)
		assertNoNumericIDs(t, route, "", body)
	}
}

// idKeys are the JSON names of 64-bit ids and epochs.
var idKeys = map[string]bool{"trace_id": true, "span_id": true, "parent": true, "cluster_epoch": true}

// assertNoNumericIDs fails on any id or epoch in v written as a JSON number.
func assertNoNumericIDs(t *testing.T, route, key string, v any) {
	t.Helper()
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			assertNoNumericIDs(t, route, k, c)
		}
	case []any:
		for _, c := range v {
			assertNoNumericIDs(t, route, key, c)
		}
	case float64:
		if idKeys[key] {
			t.Errorf("%s: %q is the bare number %v", route, key, v)
		}
	}
}
