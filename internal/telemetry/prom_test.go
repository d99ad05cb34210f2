package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestWriteTextGolden pins the full exposition for a small registry —
// HELP, TYPE, samples, summary series — so format drift is a conscious
// choice, not an accident.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.query.cache_hits").Add(7)
	r.Gauge("gateway.ws.active").Set(3)
	h := r.Histogram("gateway.http.query.latency")
	// One observation makes every quantile the same value: 2^k-bucketed
	// quantiles report the bucket ceiling, so observe an exact power of two.
	h.Observe(1 << 30) // 2^30 ns ≈ 1.073741824s

	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got := buf.String()

	want := "" +
		"# HELP gosoma_core_query_cache_hits SOMA query-path activity.\n" +
		"# TYPE gosoma_core_query_cache_hits counter\n" +
		"gosoma_core_query_cache_hits 7\n" +
		"# HELP gosoma_gateway_ws_active HTTP gateway WebSocket sessions and drop accounting.\n" +
		"# TYPE gosoma_gateway_ws_active gauge\n" +
		"gosoma_gateway_ws_active 3\n" +
		"# HELP gosoma_gateway_http_query_latency_seconds HTTP gateway request handling per route.\n" +
		"# TYPE gosoma_gateway_http_query_latency_seconds summary\n"
	if !strings.HasPrefix(got, want) {
		t.Fatalf("exposition mismatch:\n--- want prefix ---\n%s\n--- got ---\n%s", want, got)
	}
	for _, frag := range []string{
		`gosoma_gateway_http_query_latency_seconds{quantile="0.5"} `,
		`gosoma_gateway_http_query_latency_seconds{quantile="0.95"} `,
		`gosoma_gateway_http_query_latency_seconds{quantile="0.99"} `,
		"gosoma_gateway_http_query_latency_seconds_sum 1.073741824\n",
		"gosoma_gateway_http_query_latency_seconds_count 1\n",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("exposition missing %q:\n%s", frag, got)
		}
	}
}

// TestWriteTextHelpBeforeType asserts the ordering contract per family:
// every # TYPE line is immediately preceded by the family's # HELP line.
func TestWriteTextHelpBeforeType(t *testing.T) {
	r := NewRegistry()
	r.Counter("zmq.batches").Inc()
	r.Gauge("mercury.inflight").Set(1)
	r.Histogram("unmapped.subsystem.latency").Observe(time.Millisecond)

	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		family := strings.Fields(line)[2]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+family+" ") {
			t.Errorf("line %d: %q lacks a preceding HELP for %s", i, line, family)
		}
	}
	// Unmapped names still get a generic description rather than none.
	if !strings.Contains(buf.String(),
		"# HELP gosoma_unmapped_subsystem_latency_seconds gosoma metric (no subsystem description registered).\n") {
		t.Errorf("generic HELP fallback missing:\n%s", buf.String())
	}
}

// TestPromHelpLongestPrefix pins the longest-prefix-wins rule.
func TestPromHelpLongestPrefix(t *testing.T) {
	cases := map[string]string{
		"core.query.cache_hits":  "SOMA query-path activity.",
		"core.engine.calls":      "SOMA service/client internals.",
		"gateway.ws.dropped":     "HTTP gateway WebSocket sessions and drop accounting.",
		"gateway.other":          "HTTP/WebSocket gateway internals.",
		"telemetry.traces.kept":  "Tail-sampling trace store activity.",
		"entirely.unknown.thing": "gosoma metric (no subsystem description registered).",
	}
	for name, want := range cases {
		if got := promHelp(name); got != want {
			t.Errorf("promHelp(%q) = %q, want %q", name, got, want)
		}
	}
}
