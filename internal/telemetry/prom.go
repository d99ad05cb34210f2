package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus-style text exposition (the somad -metrics endpoint). The output
// follows the text format conventions: one metric family per block, counters
// and gauges as plain samples, histograms as summaries with quantile labels
// plus _sum (seconds) and _count series. Metric names are prefixed with
// "gosoma_" and sanitized to the allowed character set.

// promName sanitizes a dotted registry name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("gosoma_"))
	b.WriteString("gosoma_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// helpByPrefix maps dotted-name prefixes to HELP text. Longest matching
// prefix wins; registry names are grouped by subsystem, so a handful of
// prefixes covers every metric without per-metric bookkeeping.
var helpByPrefix = []struct{ prefix, help string }{
	{"core.publish", "SOMA publish-path activity on this process."},
	{"core.query", "SOMA query-path activity."},
	{"core.subscribe", "SOMA update-log subscriptions: open cursors, lease expiries, updates shed unread, and the bytes the log holds."},
	{"core.alerts", "Threshold-alert evaluation on the service."},
	{"core.series", "Time-series rollup store activity."},
	{"core.spill", "Client-side disk spill while the service is unreachable."},
	{"core.", "SOMA service/client internals."},
	{"mercury.", "Mercury RPC engine activity (calls, retries, breakers)."},
	{"zmq.", "Pilot component messaging (work queues and pub/sub)."},
	{"pilot.", "Pilot runtime scheduling activity."},
	{"gateway.http", "HTTP gateway request handling per route."},
	{"gateway.query", "HTTP gateway query-response cache effectiveness."},
	{"gateway.ws", "HTTP gateway WebSocket sessions and drop accounting."},
	{"gateway.process", "HTTP gateway process-level self-observation."},
	{"gateway.", "HTTP/WebSocket gateway internals."},
	{"telemetry.traces", "Tail-sampling trace store activity."},
	{"telemetry.", "Telemetry subsystem internals."},
}

// promHelp derives HELP text for a registry name from its subsystem prefix.
func promHelp(name string) string {
	best := "gosoma metric (no subsystem description registered)."
	bestLen := -1
	for _, e := range helpByPrefix {
		if len(e.prefix) > bestLen && strings.HasPrefix(name, e.prefix) {
			best, bestLen = e.help, len(e.prefix)
		}
	}
	return best
}

// WriteText writes the registry's current state in Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	return snap.WriteText(w)
}

// WriteText writes the snapshot in Prometheus text exposition format.
func (s *Snapshot) WriteText(w io.Writer) error {
	for _, name := range SortedNames(s.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			pn, promHelp(name), pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range SortedNames(s.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n",
			pn, promHelp(name), pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range SortedNames(s.Histograms) {
		h := s.Histograms[name]
		pn := promName(name) + "_seconds"
		if _, err := fmt.Fprintf(w,
			"# HELP %s %s\n# TYPE %s summary\n%s{quantile=\"0.5\"} %g\n%s{quantile=\"0.95\"} %g\n%s{quantile=\"0.99\"} %g\n%s_sum %g\n%s_count %d\n",
			pn, promHelp(name),
			pn,
			pn, h.P50.Seconds(),
			pn, h.P95.Seconds(),
			pn, h.P99.Seconds(),
			pn, h.Sum.Seconds(),
			pn, h.Count); err != nil {
			return err
		}
		// Exemplars link latency buckets to kept traces (soma.trace.get).
		// The classic text format has no exemplar syntax, so they ride in
		// comment lines (ignored by any conforming parser) in the shape
		// OpenMetrics uses: bucket ceiling plus a trace_id label.
		for _, ex := range h.Exemplars {
			if _, err := fmt.Fprintf(w, "# EXEMPLAR %s{le=\"%g\"} trace_id=\"%016x\"\n",
				pn, ex.Ceil.Seconds(), ex.TraceID); err != nil {
				return err
			}
		}
	}
	return nil
}
