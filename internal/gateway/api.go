package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// JSON-over-HTTP handlers. Each RPC keeps its shape but swaps the binary
// conduit/mercury framing for JSON: trees render through conduit's
// AppendJSON, durations become float seconds, trace ids become the same
// hex strings somactl prints. Errors come back as {"error": "..."} with
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

type alertRuleJSON struct {
	Name      string         `json:"name"`
	NS        core.Namespace `json:"ns"`
	Pattern   string         `json:"pattern"`
	Op        string         `json:"op"`
	Threshold float64        `json:"threshold"`
	WindowSec float64        `json:"window_sec"`
	Severity  string         `json:"severity"`
}

type alertStateJSON struct {
	Rule     string         `json:"rule"`
	NS       core.Namespace `json:"ns"`
	Key      string         `json:"key"`
	Severity string         `json:"severity"`
	Firing   bool           `json:"firing"`
	Value    float64        `json:"value"`
	Since    float64        `json:"since"`
}

// handleAlerts serves GET /api/alerts: every rule plus the current firing
// state per matched series key.
func (g *Gateway) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	rules, states, err := g.client.Alerts()
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	rj := make([]alertRuleJSON, len(rules))
	for i, r := range rules {
		rj[i] = alertRuleJSON{r.Name, r.NS, r.Pattern, r.Op, r.Threshold, r.WindowSec, r.Severity}
	}
	sj := make([]alertStateJSON, len(states))
	for i, s := range states {
		sj[i] = alertStateJSON{s.Rule, s.NS, s.Key, s.Severity, s.Firing, s.Value, s.Since}
	}
	writeJSON(w, http.StatusOK, struct {
		Rules  []alertRuleJSON  `json:"rules"`
		States []alertStateJSON `json:"states"`
	}{rj, sj})
}

type histogramJSON struct {
	Count     uint64         `json:"count"`
	SumSec    float64        `json:"sum_sec"`
	P50Sec    float64        `json:"p50_sec"`
	P95Sec    float64        `json:"p95_sec"`
	P99Sec    float64        `json:"p99_sec"`
	MaxSec    float64        `json:"max_sec"`
	Exemplars []exemplarJSON `json:"exemplars,omitempty"`
}

type exemplarJSON struct {
	CeilSec float64 `json:"ceil_sec"`
	TraceID string  `json:"trace_id"`
}

func telemetryJSON(snap *telemetry.Snapshot) interface{} {
	hists := make(map[string]histogramJSON, len(snap.Histograms))
	for name, h := range snap.Histograms {
		hj := histogramJSON{
			Count:  h.Count,
			SumSec: h.Sum.Seconds(),
			P50Sec: h.P50.Seconds(),
			P95Sec: h.P95.Seconds(),
			P99Sec: h.P99.Seconds(),
			MaxSec: h.Max.Seconds(),
		}
		for _, ex := range h.Exemplars {
			hj.Exemplars = append(hj.Exemplars, exemplarJSON{
				CeilSec: ex.Ceil.Seconds(),
				TraceID: fmt.Sprintf("%016x", ex.TraceID),
			})
		}
		hists[name] = hj
	}
	return struct {
		Counters   map[string]int64         `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]histogramJSON `json:"histograms"`
	}{snap.Counters, snap.Gauges, hists}
}

// handleTelemetry serves GET /api/telemetry — the upstream service's
// registry by default, the gateway's own with ?self=1.
func (g *Gateway) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("self") == "1" {
		writeJSON(w, http.StatusOK, telemetryJSON(g.reg.Snapshot()))
		return
	}
	snap, err := g.client.Telemetry()
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, telemetryJSON(snap))
}

type statsJSON struct {
	NS        core.Namespace `json:"ns"`
	Ranks     int            `json:"ranks"`
	Stripes   int            `json:"stripes"`
	Publishes int64          `json:"publishes"`
	Leaves    int64          `json:"leaves"`
	BytesIn   int64          `json:"bytes_in"`
	LastTime  float64        `json:"last_time"`
}

// handleStats serves GET /api/stats — per-namespace instance statistics.
func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats, err := g.client.Stats()
	if err != nil {
		g.fail(w, http.StatusBadGateway, err)
		return
	}
	out := make([]statsJSON, 0, len(stats))
	for _, ns := range core.Namespaces {
		st, ok := stats[ns]
		if !ok {
			continue
		}
		out = append(out, statsJSON{st.Namespace, st.Ranks, st.Stripes,
			st.Publishes, st.Leaves, st.BytesIn, st.LastTime})
	}
	writeJSON(w, http.StatusOK, struct {
		Namespaces []statsJSON `json:"namespaces"`
	}{out})
}

type healthJSON struct {
	Status      string       `json:"status"`
	UptimeSec   float64      `json:"uptime_sec"`
	Publishes   int64        `json:"publishes"`
	CallsServed int64        `json:"calls_served"`
	ShedExpired int64        `json:"shed_expired"`
	Err         string       `json:"err,omitempty"`
	Breaker     string       `json:"breaker"`
	Degraded    bool         `json:"degraded"`
	WSActive    int64        `json:"ws_active"`
	Cluster     *clusterJSON `json:"cluster,omitempty"`
}

// clusterJSON is the upstream's sharded-cluster membership as it reports it
// (present only when the instance has joined a cluster).
type clusterJSON struct {
	Self  string            `json:"self"`
	Epoch string            `json:"epoch"` // ring epoch, hex
	Alive int               `json:"alive"` // live members including self
	Peers []clusterPeerJSON `json:"peers"`
}

type clusterPeerJSON struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	Alive  bool   `json:"alive"`
	Misses int    `json:"misses"`
}

// handleHealth serves GET /api/health. It always answers 200: the report's
// status field says "unreachable" when somad is down, and the gateway
// being able to say so is itself the health signal — this is the route the
// smoke test polls through an upstream restart.
func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rep, _ := g.client.Health() // report is populated even on error
	h := healthJSON{
		Status:      rep.Status,
		UptimeSec:   rep.UptimeSec,
		Publishes:   rep.Publishes,
		CallsServed: rep.CallsServed,
		ShedExpired: rep.ShedExpired,
		Err:         rep.Err,
		Breaker:     rep.Breaker,
		Degraded:    rep.Degraded,
		WSActive:    g.wsActive.Value(),
	}
	if rep.ClusterSelf != "" {
		cl := &clusterJSON{
			Self:  rep.ClusterSelf,
			Epoch: strconv.FormatUint(rep.ClusterEpoch, 16),
			Alive: rep.ClusterAlive,
			Peers: []clusterPeerJSON{},
		}
		for _, p := range rep.ClusterPeers {
			cl.Peers = append(cl.Peers, clusterPeerJSON{ID: p.ID, Addr: p.Addr, Alive: p.Alive, Misses: p.Misses})
		}
		h.Cluster = cl
	}
	writeJSON(w, http.StatusOK, h)
}

type traceSummaryJSON struct {
	TraceID string  `json:"trace_id"`
	Root    string  `json:"root"`
	Start   string  `json:"start"`
	DurSec  float64 `json:"dur_sec"`
	Spans   int     `json:"spans"`
	Err     bool    `json:"err"`
	Reason  string  `json:"reason"`
}

type spanJSON struct {
	SpanID string  `json:"span_id"`
	Parent string  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  string  `json:"start"`
	DurSec float64 `json:"dur_sec"`
	Count  int64   `json:"count,omitempty"`
	Err    bool    `json:"err,omitempty"`
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
	out := make([]traceSummaryJSON, len(traces))
	for i, t := range traces {
		out[i] = traceSummaryJSON{
			TraceID: fmt.Sprintf("%016x", t.TraceID),
			Root:    t.Root,
			Start:   t.Start.UTC().Format(time.RFC3339Nano),
			DurSec:  t.Dur.Seconds(),
			Spans:   t.Spans,
			Err:     t.Err,
			Reason:  t.Reason,
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []traceSummaryJSON `json:"traces"`
	}{out})
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
	spans := make([]spanJSON, len(tr.Spans))
	for i, sp := range tr.Spans {
		sj := spanJSON{
			SpanID: fmt.Sprintf("%016x", sp.SpanID),
			Name:   sp.Name,
			Start:  sp.Start.UTC().Format(time.RFC3339Nano),
			DurSec: sp.Dur.Seconds(),
			Count:  sp.Count,
			Err:    sp.Err,
		}
		if sp.Parent != 0 {
			sj.Parent = fmt.Sprintf("%016x", sp.Parent)
		}
		spans[i] = sj
	}
	writeJSON(w, http.StatusOK, struct {
		TraceID      string     `json:"trace_id"`
		Root         string     `json:"root"`
		Start        string     `json:"start"`
		DurSec       float64    `json:"dur_sec"`
		Err          bool       `json:"err"`
		Reason       string     `json:"reason"`
		DroppedSpans int        `json:"dropped_spans,omitempty"`
		Spans        []spanJSON `json:"spans"`
	}{
		fmt.Sprintf("%016x", tr.TraceID), tr.Root,
		tr.Start.UTC().Format(time.RFC3339Nano), tr.Dur.Seconds(),
		tr.Err, tr.Reason, tr.DroppedSpans, spans,
	})
}
