package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// testGateway boots a real somad service over TCP plus a gateway in front
// of it, served by httptest (a real HTTP server, so Hijack works).
type testGateway struct {
	svc  *core.Service
	addr string // upstream RPC address
	gw   *Gateway
	srv  *httptest.Server
}

func newTestGateway(t *testing.T, cfg Config) *testGateway {
	t.Helper()
	svc := core.NewService(core.ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Upstream = addr
	gw, err := New(cfg)
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	tg := &testGateway{svc: svc, addr: addr, gw: gw, srv: srv}
	t.Cleanup(func() {
		srv.Close()
		gw.Close()
		svc.Close()
	})
	return tg
}

func (tg *testGateway) publish(t *testing.T, ns core.Namespace, path string, v float64) {
	t.Helper()
	n := conduit.NewNode()
	n.SetFloat(path, v)
	if err := tg.svc.Publish(ns, n, 0); err != nil {
		t.Fatal(err)
	}
}

func (tg *testGateway) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(tg.srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, body
}

func (tg *testGateway) getJSON(t *testing.T, path string, out interface{}) {
	t.Helper()
	code, body := tg.get(t, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, code, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
	}
}

// counter reads a process-global counter (tests assert deltas, never
// absolutes — the registry is shared).
func counter(name string) int64 { return telemetry.Default().Counter(name).Value() }

// TestQueryCacheHit is the tentpole's fast-path acceptance: a repeat query
// for an unchanged namespace is served from the memoized JSON body (no
// re-marshal) on top of the client's delta memo (no re-encode upstream).
func TestQueryCacheHit(t *testing.T) {
	tg := newTestGateway(t, Config{})
	tg.publish(t, core.NSWorkflow, "RP/pilot/cores", 42)

	hits0, miss0 := counter("gateway.query.cache_hits"), counter("gateway.query.cache_misses")
	var q struct {
		NS   string `json:"ns"`
		Path string `json:"path"`
		Data struct {
			RP struct {
				Pilot struct {
					Cores float64 `json:"cores"`
				} `json:"pilot"`
			} `json:"RP"`
		} `json:"data"`
	}
	tg.getJSON(t, "/api/query?ns=workflow", &q)
	if q.NS != "workflow" || q.Data.RP.Pilot.Cores != 42 {
		t.Fatalf("first query wrong: %+v", q)
	}

	// Unchanged repeat: must be a cache hit with an identical body.
	code, body1 := tg.get(t, "/api/query?ns=workflow")
	if code != http.StatusOK {
		t.Fatalf("repeat query: %d", code)
	}
	if got := counter("gateway.query.cache_hits") - hits0; got < 1 {
		t.Fatalf("cache hits delta = %d, want >= 1", got)
	}
	resp, err := http.Get(tg.srv.URL + "/api/query?ns=workflow")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Soma-Cache") != "hit" {
		t.Fatalf("repeat query not marked as cache hit (%q)", resp.Header.Get("X-Soma-Cache"))
	}
	if string(body1) != string(body2) {
		t.Fatalf("cache served different bodies:\n%s\n%s", body1, body2)
	}

	// A publish invalidates: the next query is a miss with the new value.
	tg.publish(t, core.NSWorkflow, "RP/pilot/cores", 43)
	tg.getJSON(t, "/api/query?ns=workflow", &q)
	if q.Data.RP.Pilot.Cores != 43 {
		t.Fatalf("post-publish query = %g, want 43", q.Data.RP.Pilot.Cores)
	}
	if miss := counter("gateway.query.cache_misses") - miss0; miss < 2 {
		t.Fatalf("cache miss delta = %d, want >= 2 (first + post-publish)", miss)
	}

	if code, body := tg.get(t, "/api/query?ns=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad ns: %d %s", code, body)
	}
}

// TestQueryCacheRacingRequest: a request that lands between another request's
// QueryDelta (the shared client's memo already holds the new tree) and its
// storeQuery is told "unchanged" — and must still not be served the body the
// cache holds, which renders the tree before that.
func TestQueryCacheRacingRequest(t *testing.T) {
	tg := newTestGateway(t, Config{})
	tg.publish(t, core.NSWorkflow, "RP/pilot/cores", 42)
	if code, _ := tg.get(t, "/api/query?ns=workflow"); code != http.StatusOK { // warm: body for 42
		t.Fatalf("warm-up query: %d", code)
	}
	tg.publish(t, core.NSWorkflow, "RP/pilot/cores", 43)
	// The racing request's first half: the memo moves on, nothing is stored.
	if _, changed, err := tg.gw.client.QueryDelta(core.NSWorkflow, ""); err != nil || !changed {
		t.Fatalf("QueryDelta after a publish: changed=%v err=%v", changed, err)
	}
	resp, err := http.Get(tg.srv.URL + "/api/query?ns=workflow")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"cores":43`) || resp.Header.Get("X-Soma-Cache") != "miss" {
		t.Fatalf("served a stale body (X-Soma-Cache %q): %s", resp.Header.Get("X-Soma-Cache"), body)
	}
}

// TestDashboardDrive walks the HTTP surface exactly as the embedded
// dashboard's app.js does: static assets first, then the poll loop's API
// calls, checking shape (not just status) at each step.
func TestDashboardDrive(t *testing.T) {
	tg := newTestGateway(t, Config{})
	// Series keys need timestamped numeric leaves (key/<time> pattern).
	for i := 0; i < 5; i++ {
		tg.publish(t, core.NSHardware, fmt.Sprintf("PROC/cn01/%d.5/CPU Util", i), float64(20+i))
	}

	// The page and its assets.
	code, body := tg.get(t, "/")
	if code != http.StatusOK || !strings.Contains(string(body), "SOMA") {
		t.Fatalf("dashboard index: %d", code)
	}
	if code, _ := tg.get(t, "/app.js"); code != http.StatusOK {
		t.Fatalf("app.js: %d", code)
	}
	if code, _ := tg.get(t, "/style.css"); code != http.StatusOK {
		t.Fatalf("style.css: %d", code)
	}

	// The poll loop: health, stats, series keys, one series, alerts, traces.
	var h struct {
		Status  string `json:"status"`
		Breaker string `json:"breaker"`
	}
	tg.getJSON(t, "/api/health", &h)
	if h.Status != "ok" {
		t.Fatalf("health status %q", h.Status)
	}
	var st struct {
		Namespaces []struct {
			NS        string `json:"ns"`
			Publishes int64  `json:"publishes"`
		} `json:"namespaces"`
	}
	tg.getJSON(t, "/api/stats", &st)
	found := false
	for _, ns := range st.Namespaces {
		if ns.NS == "hardware" && ns.Publishes >= 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats missing hardware publishes: %+v", st)
	}
	var keys struct {
		Keys []string `json:"keys"`
	}
	tg.getJSON(t, "/api/series?ns=hardware", &keys)
	if len(keys.Keys) == 0 {
		t.Fatal("no series keys")
	}
	var series struct {
		Key     string `json:"key"`
		Buckets []struct {
			Mean  float64 `json:"mean"`
			Count int64   `json:"count"`
		} `json:"buckets"`
	}
	tg.getJSON(t, "/api/series?ns=hardware&key=PROC%2Fcn01%2FCPU+Util&level=1s", &series)
	if len(series.Buckets) == 0 {
		t.Fatalf("series has no buckets: %+v", series)
	}
	if code, body := tg.get(t, "/api/series?ns=hardware&key=nope/none"); code != http.StatusNotFound {
		t.Fatalf("unknown series: %d %s, want 404", code, body)
	}
	var alerts struct {
		Rules  []json.RawMessage `json:"rules"`
		States []json.RawMessage `json:"states"`
	}
	tg.getJSON(t, "/api/alerts", &alerts)
	var traces struct {
		Traces []json.RawMessage `json:"traces"`
	}
	tg.getJSON(t, "/api/traces?sort=slowest", &traces)
	var tel struct {
		Counters map[string]int64 `json:"counters"`
	}
	tg.getJSON(t, "/api/telemetry?self=1", &tel)
	if _, ok := tel.Counters["gateway.http.query.requests"]; !ok && len(tel.Counters) == 0 {
		t.Fatalf("self telemetry empty: %+v", tel)
	}

	// Prometheus view of the gateway itself.
	code, body = tg.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"gosoma_gateway_http_health_requests",
		"gosoma_gateway_process_goroutines",
		"# HELP",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	if code, _ := tg.get(t, "/api/traces/zzzz"); code != http.StatusBadRequest {
		t.Fatal("bad trace id accepted")
	}
	if code, body := tg.get(t, "/api/traces/0"); code != http.StatusBadRequest {
		t.Fatalf("trace id 0: %d %s, want 400", code, body)
	}
	if code, _ := tg.get(t, "/api/traces/0123456789abcdef"); code != http.StatusNotFound {
		t.Fatal("missing trace not 404")
	}
}

// TestRateLimit429 pins the token bucket: a burst beyond the allowance
// gets 429 with Retry-After, while /api/health stays exempt (the gateway
// must never throttle its own liveness signal).
func TestRateLimit429(t *testing.T) {
	tg := newTestGateway(t, Config{RatePerSec: 1, Burst: 3})
	limited0 := counter("gateway.http.rate_limited")
	var got429 bool
	for i := 0; i < 10; i++ {
		resp, err := http.Get(tg.srv.URL + "/api/stats")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		}
	}
	if !got429 {
		t.Fatal("no 429 under burst")
	}
	if counter("gateway.http.rate_limited")-limited0 < 1 {
		t.Fatal("rate_limited counter did not move")
	}
	// Health stays reachable regardless of the exhausted bucket.
	for i := 0; i < 5; i++ {
		if code, _ := tg.get(t, "/api/health"); code != http.StatusOK {
			t.Fatalf("health throttled: %d", code)
		}
	}
}

// TestWSLiveUpdates subscribes over a real WebSocket and receives a
// published update with the drop accounting fields present.
func TestWSLiveUpdates(t *testing.T) {
	tg := newTestGateway(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := Dial(ctx, "ws"+strings.TrimPrefix(tg.srv.URL, "http")+"/ws?ns=workflow")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	tg.publish(t, core.NSWorkflow, "RP/tasks/running", 7)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		op, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if op == OpPing {
			conn.WriteMessage(OpPong, payload)
			continue
		}
		if op != OpText {
			continue
		}
		var u struct {
			NS   string `json:"ns"`
			Data struct {
				RP struct {
					Tasks struct {
						Running float64 `json:"running"`
					} `json:"tasks"`
				} `json:"RP"`
			} `json:"data"`
			DroppedWS       *int64 `json:"dropped_ws"`
			DroppedUpstream *int64 `json:"dropped_upstream"`
			Dropped         *int64 `json:"dropped"`
		}
		if err := json.Unmarshal(payload, &u); err != nil {
			t.Fatalf("bad update JSON: %v\n%s", err, payload)
		}
		if u.NS != "workflow" || u.Data.RP.Tasks.Running != 7 {
			t.Fatalf("unexpected update: %s", payload)
		}
		if u.DroppedWS == nil || u.DroppedUpstream == nil || u.Dropped == nil {
			t.Fatalf("drop accounting fields missing: %s", payload)
		}
		return
	}
}

// TestWSAlertsStream verifies the soma.alerts stream end to end: a rule
// whose threshold the published series crosses produces a firing
// transition on the alert WebSocket.
func TestWSAlertsStream(t *testing.T) {
	tg := newTestGateway(t, Config{})
	cli, err := core.Connect(tg.addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.SetAlert(core.AlertRule{
		Name: "hot", NS: core.NSHardware, Pattern: "PROC/**",
		Op: ">", Threshold: 90, WindowSec: 1, Severity: "critical",
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	conn, err := Dial(ctx, "ws"+strings.TrimPrefix(tg.srv.URL, "http")+"/ws?ns=soma.alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Publish above-threshold samples until the evaluator fires (rollup
	// buckets need the window to fill).
	deadline := time.Now().Add(10 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; time.Now().Before(deadline); i++ {
			select {
			case <-ctx.Done():
				return
			default:
			}
			n := conduit.NewNode()
			n.SetFloat(fmt.Sprintf("PROC/cn01/%d.25/CPU Util", i), 99)
			tg.svc.Publish(core.NSHardware, n, 0)
			time.Sleep(50 * time.Millisecond)
		}
	}()
	defer func() { cancel(); <-done }()

	conn.SetReadDeadline(deadline.Add(time.Second))
	for {
		op, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("no alert transition arrived: %v", err)
		}
		if op == OpPing {
			conn.WriteMessage(OpPong, payload)
			continue
		}
		if op != OpText {
			continue
		}
		var u struct {
			NS    string `json:"ns"`
			Alert bool   `json:"alert"`
		}
		if err := json.Unmarshal(payload, &u); err != nil {
			t.Fatalf("bad alert JSON: %v\n%s", err, payload)
		}
		if !u.Alert {
			t.Fatalf("alert stream message without alert flag: %s", payload)
		}
		return
	}
}

// TestHealthClusterBlock: when the upstream joins a sharded cluster, the
// gateway's /api/health must surface the membership fields — self, ring
// epoch (a decimal string), alive count and per-peer liveness — and omit
// them otherwise.
func TestHealthClusterBlock(t *testing.T) {
	tg := newTestGateway(t, Config{})

	if _, body := tg.get(t, "/api/health"); strings.Contains(string(body), `"cluster_`) {
		t.Fatalf("unclustered upstream reported cluster fields: %s", body)
	}

	peer := core.NewService(core.ServiceConfig{})
	paddr, err := peer.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	join := func(s *core.Service, id string, peers []string) {
		t.Helper()
		err := s.JoinCluster(core.ClusterConfig{
			SelfID:       id,
			Peers:        peers,
			PingInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	join(tg.svc, "gw-upstream", []string{paddr})
	join(peer, "gw-peer", []string{tg.addr})

	var h struct {
		Self  string `json:"cluster_self"`
		Epoch string `json:"cluster_epoch"`
		Alive int    `json:"cluster_alive"`
		Peers []struct {
			ID    string `json:"id"`
			Alive bool   `json:"alive"`
		} `json:"cluster_peers"`
	}
	// Peers start alive from the seed list but their configured labels only
	// arrive with the first gossip exchange — poll for both.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tg.getJSON(t, "/api/health", &h)
		if h.Alive == 2 && len(h.Peers) == 1 && h.Peers[0].ID == "gw-peer" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster fields never settled on 2 alive with gossiped ids: %+v", h)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if h.Self != tg.addr {
		t.Errorf("cluster self = %q, want upstream addr %q", h.Self, tg.addr)
	}
	if h.Epoch == "" || h.Epoch == "0" {
		t.Errorf("cluster epoch = %q, want a nonzero ring epoch", h.Epoch)
	}
	if len(h.Peers) != 1 || h.Peers[0].ID != "gw-peer" || !h.Peers[0].Alive {
		t.Errorf("cluster peers = %+v, want one alive gw-peer", h.Peers)
	}
	var body any
	tg.getJSON(t, "/api/health", &body)
	assertNoNumericIDs(t, "/api/health", "", body)
}
