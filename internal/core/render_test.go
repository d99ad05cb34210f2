package core

import (
	"strings"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/pilot"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// fakeQuerier serves canned trees keyed by "<namespace>|<path>"; unknown
// paths return an empty tree, the way a live service answers a query for a
// path nothing has published under.
type fakeQuerier map[string]*conduit.Node

func (f fakeQuerier) Query(ns Namespace, path string) (*conduit.Node, error) {
	if n, ok := f[string(ns)+"|"+path]; ok {
		return n, nil
	}
	return conduit.NewNode(), nil
}

func renderFixture() fakeQuerier {
	summary := conduit.NewNode()
	summary.SetInt("10.0/pending", 4)
	summary.SetInt("10.0/running", 2)
	summary.SetInt("10.0/done", 1)
	summary.SetInt("20.0/pending", 0)
	summary.SetInt("20.0/running", 2)
	summary.SetInt("20.0/done", 5)
	summary.SetInt("20.0/failed", 1)

	rp := conduit.NewNode()
	rp.Fetch("summary")
	rp.Fetch("task.000001")

	durations := conduit.NewNode()
	durations.SetFloat(string(pilot.StateAgentScheduling), 3.0)

	proc := conduit.NewNode()
	proc.Fetch("cn01")
	proc.Fetch("cn02")
	cn01 := conduit.NewNode()
	cn01.SetFloat("10.0/CPU Util", 50)
	cn02 := conduit.NewNode()
	cn02.SetFloat("10.0/CPU Util", 100)

	return fakeQuerier{
		string(NSWorkflow) + "|RP/summary":                     summary,
		string(NSWorkflow) + "|RP":                             rp,
		string(NSWorkflow) + "|RP/task.000001/state_durations": durations,
		string(NSHardware) + "|PROC":                           proc,
		string(NSHardware) + "|PROC/cn01":                      cn01,
		string(NSHardware) + "|PROC/cn02":                      cn02,
	}
}

func TestRenderSummaryGolden(t *testing.T) {
	a := Analysis{Q: renderFixture()}
	stats := map[Namespace]InstanceStats{
		NSHardware: {Namespace: NSHardware, Ranks: 4, Stripes: 2, Publishes: 128, Leaves: 1024, BytesIn: 4096},
		// Occupancy as a service with rollups reports it; the row above is
		// what an older service (or one without rollups) sends.
		NSPerformance: {Namespace: NSPerformance, Ranks: 1, Stripes: 2, Publishes: 7, Leaves: 3, BytesIn: 640,
			Series: 3, SeriesCap: 8192, SeriesBytes: 1536},
	}
	var sb strings.Builder
	RenderSummary(&sb, a, stats)
	want := `workflow   pending=0 running=2 done=5 failed=1 canceled=0 (2 snapshots)
throughput 0.400 tasks/s
queue wait mean=3.0s max=3.0s (n=1)

hardware   2 node(s):
  cn01       [|||||||||||||||               ]  50.0%
  cn02       [||||||||||||||||||||||||||||||] 100.0%

service instances:
  hardware     ranks=4   stripes=2  publishes=128      leaves=1024      bytes_in=4096
  performance  ranks=1   stripes=2  publishes=7        leaves=3         bytes_in=640
               series=3/8192 series_bytes=1536
`
	if got := sb.String(); got != want {
		t.Errorf("RenderSummary mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderSummaryNoData(t *testing.T) {
	var sb strings.Builder
	RenderSummary(&sb, Analysis{Q: fakeQuerier{}}, nil)
	if got := sb.String(); got != "workflow   (no data)\n" {
		t.Errorf("empty render = %q", got)
	}
}

func TestRenderTelemetryGolden(t *testing.T) {
	snap := &telemetry.Snapshot{
		Counters: map[string]int64{"mercury.calls_served": 42},
		Gauges:   map[string]float64{"zmq.queue.sched.depth": 3},
		Histograms: map[string]telemetry.HistogramSnapshot{
			"mercury.server.latency.soma.publish": {
				Count: 7, Max: 30 * time.Microsecond,
				P50: 8 * time.Microsecond, P95: 25 * time.Microsecond, P99: 29 * time.Microsecond,
			},
		},
	}
	var sb strings.Builder
	RenderTelemetry(&sb, snap)
	want := `latency:
  mercury.server.latency.soma.publish      n=7        p50=8µs        p95=25µs       p99=29µs       max=30µs
gauges:
  zmq.queue.sched.depth                    3
counters:
  mercury.calls_served                     42
`
	if got := sb.String(); got != want {
		t.Errorf("RenderTelemetry mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderSpansLimit(t *testing.T) {
	spans := []telemetry.SpanSnapshot{
		{TraceID: 1, SpanID: 2, Name: "old", Dur: time.Millisecond},
		{TraceID: 3, SpanID: 4, Name: "mid", Dur: time.Millisecond},
		{TraceID: 5, SpanID: 6, Parent: 4, Name: "new", Dur: time.Microsecond},
	}
	var sb strings.Builder
	RenderSpans(&sb, spans, 2)
	got := sb.String()
	if strings.Contains(got, "old") {
		t.Error("limit did not drop the oldest span")
	}
	if !strings.Contains(got, "mid") || !strings.Contains(got, "new") {
		t.Errorf("newest spans missing:\n%s", got)
	}
	if !strings.Contains(got, "parent=0000000000000004") {
		t.Errorf("parent id not rendered:\n%s", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	// A monotone ramp spans the rune range, lowest to highest.
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp = %q", got)
	}
	// A flat series renders at the lowest level.
	if got := Sparkline([]float64{5, 5, 5}, 0); got != "▁▁▁" {
		t.Errorf("flat = %q", got)
	}
	// Width keeps the newest values.
	if got := Sparkline([]float64{9, 9, 0, 7}, 2); got != "▁█" {
		t.Errorf("windowed = %q", got)
	}
}

func TestRenderAlertsGolden(t *testing.T) {
	var sb strings.Builder
	RenderAlerts(&sb, nil, nil)
	if sb.String() != "alerts:    (no rules)\n" {
		t.Errorf("empty alerts = %q", sb.String())
	}

	sb.Reset()
	rules := []AlertRule{{
		Name: "cpu-hot", NS: NSHardware, Pattern: "PROC/*/CPU Util",
		Op: ">", Threshold: 90, WindowSec: 10, Severity: "critical",
	}}
	states := []AlertState{
		{Rule: "cpu-hot", NS: NSHardware, Key: "PROC/cn01/CPU Util", Severity: "critical", Firing: true, Value: 97.5, Since: 12.25},
		{Rule: "cpu-hot", NS: NSHardware, Key: "PROC/cn02/CPU Util", Severity: "critical", Firing: false, Value: 40, Since: 1},
	}
	RenderAlerts(&sb, rules, states)
	want := `alerts:
  rule cpu-hot          hardware PROC/*/CPU Util > 90 window=10s severity=critical
  FIRING cpu-hot          PROC/cn01/CPU Util               value=97.500 since=12.250
  ok     cpu-hot          PROC/cn02/CPU Util               value=40.000 since=1.000
`
	if got := sb.String(); got != want {
		t.Errorf("RenderAlerts mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderSeriesSparklines(t *testing.T) {
	var sb strings.Builder
	RenderSeriesSparklines(&sb, "series:", nil)
	if sb.String() != "" {
		t.Errorf("empty series rendered %q", sb.String())
	}
	series := []Series{
		{Key: "PROC/cn01/CPU Util", Level: Level1s, Bucket: []SeriesBucket{
			{Start: 0, Mean: 10, Count: 4}, {Start: 1, Mean: 90, Count: 4},
		}},
		{Key: "no-buckets", Level: Level1s},
	}
	RenderSeriesSparklines(&sb, "series:", series)
	got := sb.String()
	if !strings.HasPrefix(got, "series:\n") {
		t.Errorf("missing title:\n%s", got)
	}
	if !strings.Contains(got, "PROC/cn01/CPU Util") || !strings.Contains(got, "▁█") {
		t.Errorf("sparkline row missing:\n%s", got)
	}
	if strings.Contains(got, "no-buckets") {
		t.Errorf("bucketless series rendered:\n%s", got)
	}
	if lines := strings.Count(got, "\n"); lines != 2 {
		t.Errorf("rendered %d lines:\n%s", lines, got)
	}
}
