package core

import (
	"fmt"
	"io"
	"strings"

	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Text rendering for the operator tools. cmd/somatop and cmd/somactl share
// these panels; they live here (not in the commands) so the layout is
// testable against a fake Querier and a hand-built telemetry snapshot.

// maxHostRows bounds the per-host utilization listing so the panel stays
// readable on large allocations.
const maxHostRows = 12

// RenderSummary writes the workflow / hardware / service-instance panels
// somatop refreshes: latest workflow state counts, task throughput, queue
// wait, per-host CPU utilization bars, and per-instance service counters.
// Analysis errors degrade to omitted sections; stats may be nil.
func RenderSummary(w io.Writer, a Analysis, stats map[Namespace]InstanceStats) {
	if series, err := a.WorkflowSeries(); err == nil && len(series) > 0 {
		last := series[len(series)-1]
		fmt.Fprintf(w, "workflow   pending=%d running=%d done=%d failed=%d canceled=%d (%d snapshots)\n",
			last.Pending, last.Running, last.Done, last.Failed, last.Canceled, len(series))
		if tp, err := a.Throughput(); err == nil && tp > 0 {
			fmt.Fprintf(w, "throughput %.3f tasks/s\n", tp)
		}
		if qw, err := a.QueueWaitStats(); err == nil && qw.N > 0 {
			fmt.Fprintf(w, "queue wait mean=%.1fs max=%.1fs (n=%d)\n", qw.Mean, qw.Max, qw.N)
		}
	} else {
		fmt.Fprintln(w, "workflow   (no data)")
	}

	if hosts, err := a.Hosts(); err == nil && len(hosts) > 0 {
		fmt.Fprintf(w, "\nhardware   %d node(s):\n", len(hosts))
		shown := hosts
		if len(shown) > maxHostRows {
			shown = shown[:maxHostRows]
		}
		for _, h := range shown {
			if series, err := a.CPUUtilSeries(h); err == nil && len(series) > 0 {
				last := series[len(series)-1]
				bar := int(last.Util / 100 * 30)
				fmt.Fprintf(w, "  %-10s [%-30s] %5.1f%%\n",
					h, strings.Repeat("|", bar), last.Util)
			}
		}
		if len(hosts) > len(shown) {
			fmt.Fprintf(w, "  ... and %d more\n", len(hosts)-len(shown))
		}
	}

	if len(stats) > 0 {
		fmt.Fprintln(w, "\nservice instances:")
		for _, ns := range append(append([]Namespace(nil), Namespaces...), "shared") {
			st, ok := stats[ns]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-12s ranks=%-3d stripes=%-2d publishes=%-8d leaves=%-9d bytes_in=%d\n",
				ns, st.Ranks, st.Stripes, st.Publishes, st.Leaves, st.BytesIn)
			if occ := st.Occupancy(); occ != "" {
				fmt.Fprintf(w, "  %-12s %s\n", "", occ)
			}
		}
	}
}

// Occupancy renders the instance's bounded store against its bound, in
// the key=value style of the stats line it follows; "" when the service
// reported none (rollups disabled, or a service that predates the fields).
func (st InstanceStats) Occupancy() string {
	if st.SeriesCap == 0 {
		return ""
	}
	return fmt.Sprintf("series=%d/%d series_bytes=%d", st.Series, st.SeriesCap, st.SeriesBytes)
}

// RenderTelemetry writes the service's self-telemetry panel: latency
// histograms (p50/p95/p99/max), gauges, and counters, each sorted by name.
func RenderTelemetry(w io.Writer, snap *telemetry.Snapshot) {
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(w, "latency:")
		for _, name := range telemetry.SortedNames(snap.Histograms) {
			h := snap.Histograms[name]
			fmt.Fprintf(w, "  %-40s n=%-8d p50=%-10s p95=%-10s p99=%-10s max=%s\n",
				name, h.Count, h.P50, h.P95, h.P99, h.Max)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range telemetry.SortedNames(snap.Gauges) {
			fmt.Fprintf(w, "  %-40s %g\n", name, snap.Gauges[name])
		}
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range telemetry.SortedNames(snap.Counters) {
			fmt.Fprintf(w, "  %-40s %d\n", name, snap.Counters[name])
		}
	}
}

// RenderAlerts writes the threshold-alert panel: the installed rules, then
// one line per (rule, series) standing with firing rows first-class visible.
func RenderAlerts(w io.Writer, rules []AlertRule, states []AlertState) {
	if len(rules) == 0 {
		fmt.Fprintln(w, "alerts:    (no rules)")
		return
	}
	fmt.Fprintln(w, "alerts:")
	for _, r := range rules {
		fmt.Fprintf(w, "  rule %-16s %s %s %s %g window=%gs severity=%s\n",
			r.Name, r.NS, r.Pattern, r.Op, r.Threshold, r.WindowSec, r.Severity)
	}
	for _, st := range states {
		label := "ok"
		if st.Firing {
			label = "FIRING"
		}
		fmt.Fprintf(w, "  %-6s %-16s %-32s value=%.3f since=%.3f\n",
			label, st.Rule, st.Key, st.Value, st.Since)
	}
}

// sparkRunes is the 8-level bar strip used for series sparklines.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode bar strip scaled to their min/max
// range, keeping the newest width values (width <= 0 keeps all). A flat
// series renders at the lowest level.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width > 0 && len(values) > width {
		values = values[len(values)-width:]
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, len(values))
	for i, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		out[i] = sparkRunes[idx]
	}
	return string(out)
}

// RenderSeriesSparklines writes one sparkline row per series from its 1s
// bucket means, with the latest value and the bucket count.
func RenderSeriesSparklines(w io.Writer, title string, series []Series) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "%s\n", title)
	for _, se := range series {
		if len(se.Bucket) == 0 {
			continue
		}
		means := make([]float64, len(se.Bucket))
		for i, b := range se.Bucket {
			means[i] = b.Mean
		}
		fmt.Fprintf(w, "  %-32s %s %10.2f (%d pts)\n",
			se.Key, Sparkline(means, 40), means[len(means)-1], len(se.Bucket))
	}
}

// RenderTraceList writes one line per kept trace summary: id, root span
// name, duration, span count, keep reason, and an ERR flag for error traces.
// The somatop traces panel and `somactl trace` (without an id) share it.
func RenderTraceList(w io.Writer, sums []telemetry.TraceSummary) {
	if len(sums) == 0 {
		fmt.Fprintln(w, "traces:    (none kept)")
		return
	}
	fmt.Fprintln(w, "kept traces:")
	for _, s := range sums {
		flag := ""
		if s.Err {
			flag = "  ERR"
		}
		fmt.Fprintf(w, "  %016x  %-32s %12s %4d spans  %-6s%s\n",
			s.TraceID, s.Root, s.Dur, s.Spans, s.Reason, flag)
	}
}

// waterfallWidth is the default timeline width (characters) of the trace
// waterfall.
const waterfallWidth = 48

// spanDepth computes a span's nesting depth by walking its parent chain.
// Spans whose parent left the trace (remote parents, capped traces) sit at
// depth 0; the walk is bounded so a corrupt parent cycle cannot hang it.
func spanDepth(byID map[telemetry.ID]telemetry.SpanSnapshot, sp telemetry.SpanSnapshot) int {
	depth := 0
	for sp.Parent != 0 && depth < 16 {
		p, ok := byID[sp.Parent]
		if !ok {
			break
		}
		depth++
		sp = p
	}
	return depth
}

// RenderTraceWaterfall writes a cross-process trace as a waterfall: one row
// per span, indented by parent depth, with a bar showing where the span sat
// inside the trace window. For a batched publish the rows read top to
// bottom as client publish → coalescer flush → wire → batch stripe append,
// with the server-side rows carrying the coalesced-entry count (×N).
// width <= 0 selects the default timeline width.
func RenderTraceWaterfall(w io.Writer, tr telemetry.Trace, width int) {
	if width <= 0 {
		width = waterfallWidth
	}
	fmt.Fprintf(w, "trace %016x  root=%s  dur=%s  spans=%d  kept=%s",
		tr.TraceID, tr.Root, tr.Dur, len(tr.Spans), tr.Reason)
	if tr.Err {
		fmt.Fprint(w, "  ERR")
	}
	fmt.Fprintln(w)
	if tr.DroppedSpans > 0 {
		fmt.Fprintf(w, "  (%d more spans dropped by the per-trace cap)\n", tr.DroppedSpans)
	}
	if len(tr.Spans) == 0 {
		return
	}

	// The timeline window spans the earliest start to the latest end; spans
	// from different processes land here on their own clocks, so the window
	// is computed, not assumed to equal the root span.
	min, max := tr.Spans[0].Start, tr.Spans[0].Start.Add(tr.Spans[0].Dur)
	for _, sp := range tr.Spans[1:] {
		if sp.Start.Before(min) {
			min = sp.Start
		}
		if end := sp.Start.Add(sp.Dur); end.After(max) {
			max = end
		}
	}
	window := max.Sub(min)
	if window <= 0 {
		window = 1
	}

	byID := make(map[telemetry.ID]telemetry.SpanSnapshot, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
	}
	nameCol := 0
	for _, sp := range tr.Spans {
		if n := 2*spanDepth(byID, sp) + len(sp.Name); n > nameCol {
			nameCol = n
		}
	}
	if nameCol > 48 {
		nameCol = 48
	}

	for _, sp := range tr.Spans {
		off := int(int64(width) * int64(sp.Start.Sub(min)) / int64(window))
		bar := int(int64(width) * int64(sp.Dur) / int64(window))
		if bar < 1 {
			bar = 1
		}
		if off > width-1 {
			off = width - 1
		}
		if off+bar > width {
			bar = width - off
		}
		lane := strings.Repeat(" ", off) + strings.Repeat("#", bar) + strings.Repeat(" ", width-off-bar)
		label := strings.Repeat("  ", spanDepth(byID, sp)) + sp.Name
		fmt.Fprintf(w, "  %-*s %12s  [%s]", nameCol, label, sp.Dur, lane)
		if sp.Count > 0 {
			fmt.Fprintf(w, " x%d", sp.Count)
		}
		if sp.Err {
			fmt.Fprint(w, " ERR")
		}
		fmt.Fprintln(w)
	}
}

// RenderSpans writes the newest limit spans (oldest of those first), one per
// line with trace/span/parent ids in hex. limit <= 0 renders every span.
func RenderSpans(w io.Writer, spans []telemetry.SpanSnapshot, limit int) {
	if len(spans) == 0 {
		return
	}
	if limit > 0 && len(spans) > limit {
		spans = spans[len(spans)-limit:]
	}
	fmt.Fprintln(w, "recent spans:")
	for _, sp := range spans {
		parent := strings.Repeat("-", 16)
		if sp.Parent != 0 {
			parent = fmt.Sprintf("%016x", sp.Parent)
		}
		fmt.Fprintf(w, "  trace=%016x span=%016x parent=%s %-28s %s\n",
			sp.TraceID, sp.SpanID, parent, sp.Name, sp.Dur)
	}
}
