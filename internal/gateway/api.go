package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// JSON-over-HTTP handlers. Each RPC keeps its shape but swaps the binary
// conduit/mercury framing for JSON: trees render through conduit's
// AppendJSON, and every other answer is its Go type through encoding/json —
// durations as integer nanoseconds, trace and span ids as the 16-hex strings
// somactl prints. Errors come back as {"error": "..."} with
// 400 for a bad request, 404 for a missing resource, and 502 when the
// upstream call failed (the gateway is a bridge; upstream failure is not
// the gateway's 500).

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (g *Gateway) fail(w http.ResponseWriter, status int, err error) {
	g.httpErrors.Inc()
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// parseNS validates the ?ns= parameter. allowAll admits the empty
// namespace (subscriptions: "" means every namespace).
func parseNS(r *http.Request, allowAll bool) (core.Namespace, error) {
	ns := core.Namespace(r.URL.Query().Get("ns"))
	if ns == "" && allowAll {
		return ns, nil
	}
	if ns == core.NSAlerts && allowAll {
		return ns, nil
	}
	if !ns.Valid() {
		return ns, fmt.Errorf("unknown namespace %q", ns)
	}
	return ns, nil
}

// handleQuery serves GET /api/query?ns=<ns>&path=<dotted.path>.
//
// The fast path: the upstream call is QueryDelta, so an unchanged
// namespace answers with the ~30-byte "unchanged" frame the service's
// snapshot was built with and the client hands back its memoized
// tree; the gateway then replays the JSON body it wrote from that tree — a
// repeat query re-encodes nothing on either side. A changed namespace comes
// back as the memo with its changed children grafted on, and the body is
// re-rendered against the last one: only the children whose pointer moved
// are written again, every other child's bytes are copied.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	ns, err := parseNS(r, false)
	if err != nil {
		g.fail(w, http.StatusBadRequest, err)
		return
	}
	path := r.URL.Query().Get("path")
	key := string(ns) + "\x00" + path
	tree, _, err := g.client.QueryDelta(ns, path)
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	doc, hit := g.cachedQuery(key, tree)
	w.Header().Set("Content-Type", "application/json")
	if hit {
		g.cacheHits.Inc()
		w.Header().Set("X-Soma-Cache", "hit")
		w.Write(doc.Bytes())
		return
	}
	g.cacheMisses.Inc()
	// Byte for byte what json.Marshal writes for {ns, path, data} as a struct.
	prefix := append(conduit.AppendJSONString([]byte(`{"ns":`), string(ns)), `,"path":`...)
	prefix = append(conduit.AppendJSONString(prefix, path), `,"data":`...)
	doc = conduit.RenderJSON(prefix, tree, []byte("}"), doc)
	reused, rendered := doc.Children()
	g.childrenReused.Add(int64(reused))
	g.childrenRendered.Add(int64(rendered))
	g.storeQuery(key, tree, doc)
	w.Header().Set("X-Soma-Cache", "miss")
	w.Write(doc.Bytes())
}

type seriesPointJSON struct {
	Time  float64 `json:"time"`
	Value float64 `json:"value"`
}

type seriesBucketJSON struct {
	Start float64 `json:"start"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count int64   `json:"count"`
}

// handleSeries serves either a key listing
// (GET /api/series?ns=<ns>&pattern=<glob>) or one series
// (GET /api/series?ns=<ns>&key=<key>&level=raw|1s|10s&after=<t>).
func (g *Gateway) handleSeries(w http.ResponseWriter, r *http.Request) {
	ns, err := parseNS(r, false)
	if err != nil {
		g.fail(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	if pattern := q.Get("pattern"); pattern != "" || q.Get("key") == "" {
		keys, err := g.client.SeriesKeys(ns, pattern)
		if err != nil {
			g.fail(w, http.StatusBadGateway, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			NS   core.Namespace `json:"ns"`
			Keys []string       `json:"keys"`
		}{ns, keys})
		return
	}
	key := q.Get("key")
	level := core.SeriesLevel(q.Get("level"))
	if level == "" {
		level = core.Level1s
	}
	switch level {
	case core.LevelRaw, core.Level1s, core.Level10s:
	default:
		g.fail(w, http.StatusBadRequest, fmt.Errorf("unknown level %q", level))
		return
	}
	after := 0.0
	if s := q.Get("after"); s != "" {
		after, err = strconv.ParseFloat(s, 64)
		if err != nil {
			g.fail(w, http.StatusBadRequest, fmt.Errorf("bad after %q", s))
			return
		}
	}
	se, err := g.client.Series(ns, key, level, after)
	if err != nil {
		if errors.Is(err, core.ErrNoSeries) {
			g.fail(w, http.StatusNotFound, err)
			return
		}
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	points := make([]seriesPointJSON, len(se.Points))
	for i, p := range se.Points {
		points[i] = seriesPointJSON{p.Time, p.Value}
	}
	buckets := make([]seriesBucketJSON, len(se.Bucket))
	for i, b := range se.Bucket {
		buckets[i] = seriesBucketJSON{b.Start, b.Min, b.Max, b.Mean, b.Count}
	}
	writeJSON(w, http.StatusOK, struct {
		NS      core.Namespace     `json:"ns"`
		Key     string             `json:"key"`
		Level   core.SeriesLevel   `json:"level"`
		Points  []seriesPointJSON  `json:"points"`
		Buckets []seriesBucketJSON `json:"buckets"`
	}{ns, se.Key, se.Level, points, buckets})
}

// handleAlerts serves GET /api/alerts: every rule plus the current firing
// state per matched series key.
func (g *Gateway) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	rules, states, err := g.client.Alerts()
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Rules  []core.AlertRule  `json:"rules"`
		States []core.AlertState `json:"states"`
	}{nonNil(rules), nonNil(states)})
}

// handleTelemetry serves GET /api/telemetry — the upstream service's
// registry by default, the gateway's own with ?self=1.
func (g *Gateway) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("self") == "1" {
		writeJSON(w, http.StatusOK, g.reg.Snapshot())
		return
	}
	snap, err := g.client.Telemetry()
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleStats serves GET /api/stats — per-namespace instance statistics, in
// namespace order.
func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats, err := g.client.Stats()
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	out := make([]core.InstanceStats, 0, len(stats))
	for _, ns := range core.Namespaces {
		if st, ok := stats[ns]; ok {
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Namespaces []core.InstanceStats `json:"namespaces"`
	}{out})
}

// handleHealth serves GET /api/health: the upstream's report plus the
// gateway's live WebSocket count. It always answers 200: the report's
// status field says "unreachable" when somad is down, and the gateway
// being able to say so is itself the health signal — this is the route the
// smoke test polls through an upstream restart.
func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rep, _ := g.client.Health() // report is populated even on error
	writeJSON(w, http.StatusOK, struct {
		core.HealthReport
		WSActive int64 `json:"ws_active"`
	}{rep, g.wsActive.Value()})
}

// handleTraces serves GET /api/traces?limit=<n>&sort=slowest|recent.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 20
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			g.fail(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", s))
			return
		}
		limit = n
	}
	slowest := q.Get("sort") == "slowest"
	traces, err := g.client.Traces(limit, slowest)
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []telemetry.TraceSummary `json:"traces"`
	}{nonNil(traces)})
}

// handleTrace serves GET /api/traces/{id} with the full span tree. Id 0
// names no trace (the upstream refuses it as a bad request), so it is a bad
// id here too.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 16, 64)
	if err != nil || id == 0 {
		g.fail(w, http.StatusBadRequest, fmt.Errorf("bad trace id %q", r.PathValue("id")))
		return
	}
	tr, err := g.client.Trace(id)
	if err != nil {
		if errors.Is(err, core.ErrTraceNotFound) {
			g.fail(w, http.StatusNotFound, err)
			return
		}
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// nonNil keeps an empty list a JSON [] rather than null.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
