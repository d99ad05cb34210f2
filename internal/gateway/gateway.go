package gateway

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Config parameterizes a Gateway. The zero value plus an Upstream address
// is a working configuration.
type Config struct {
	// Upstream is the somad RPC address (tcp://host:port). Ignored when
	// Client is set.
	Upstream string

	// Client is a pre-connected upstream client (tests); when nil the
	// gateway dials Upstream with its own CallPolicy.
	Client *core.Client

	// RatePerSec / Burst shape the per-client token bucket. RatePerSec ≤ 0
	// with Burst 0 selects the defaults; RatePerSec < 0 disables limiting.
	RatePerSec float64
	Burst      int

	// PingInterval is how often the gateway pings each WebSocket;
	// PongTimeout is the extra grace beyond it before the socket's
	// read-lease expires and the connection is reaped.
	PingInterval time.Duration
	PongTimeout  time.Duration

	// SendBuffer is the per-socket outbound queue depth; when it is full
	// further updates are dropped (never blocking the fan-out) and counted.
	SendBuffer int

	// Registry receives the gateway's own metrics (default
	// telemetry.Default(), so somagate is observable through the same
	// pipeline it fronts).
	Registry *telemetry.Registry
}

// Defaults for the knobs above.
const (
	DefaultRatePerSec   = 50.0
	DefaultBurst        = 100
	DefaultPingInterval = 15 * time.Second
	DefaultPongTimeout  = 10 * time.Second
	DefaultSendBuffer   = 64
)

// maxQueryCache bounds the JSON body cache (same wholesale-drop idiom as
// the client's delta memo).
const maxQueryCache = 256

// Gateway bridges one upstream SOMA service to JSON-over-HTTP and
// WebSocket push. Create with New, mount Handler on an http.Server, Close
// to tear down every live socket.
type Gateway struct {
	client  *core.Client
	ownsCli bool
	reg     *telemetry.Registry
	mux     *http.ServeMux
	limiter *rateLimiter

	pingInterval time.Duration
	pongTimeout  time.Duration
	sendBuffer   int

	// WS sessions derive from ctx, not from the upgrade request's context:
	// after Hijack the request context is dead weight, and Close must be
	// able to end every session.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// qcache holds the rendered JSON body of the last query response per
	// (ns, path), with the tree it was rendered from. Paired with the
	// client's delta memo — which hands back the same tree while the
	// namespace is unchanged — it makes repeat queries cost one ~30-byte
	// "unchanged" RPC frame and zero re-encoding on either side; when the
	// tree moved, the entry is the base the next body re-renders against.
	qmu    sync.Mutex
	qcache map[string]queryBody

	// Metrics. Per-route counters/histograms are created lazily in route().
	rateLimited *telemetry.Counter
	httpErrors  *telemetry.Counter
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	wsActive    *telemetry.Gauge
	wsAccepted  *telemetry.Counter
	wsDropped   *telemetry.Counter
	wsMessages  *telemetry.Counter

	// childrenReused / childrenRendered count, per miss, the direct children
	// of the queried path whose JSON was copied from the previous body and
	// the ones written afresh.
	childrenReused   *telemetry.Counter
	childrenRendered *telemetry.Counter
}

// Policy is the CallPolicy the gateway uses upstream: bounded retries over
// the idempotent RPC set, short attempts under an overall deadline, and a
// breaker so a dead somad fails browser requests fast instead of stacking
// 10-second timeouts.
func Policy() *mercury.CallPolicy {
	return &mercury.CallPolicy{
		ConnectTimeout:   5 * time.Second,
		CallTimeout:      10 * time.Second,
		AttemptTimeout:   3 * time.Second,
		MaxRetries:       2,
		Backoff:          mercury.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second},
		Idempotent:       mercury.IdempotentSet(core.IdempotentRPCs()...),
		FailureThreshold: 5,
		OpenFor:          2 * time.Second,
	}
}

// New connects to the upstream service and builds the route table.
func New(cfg Config) (*Gateway, error) {
	cli := cfg.Client
	owns := false
	if cli == nil {
		if cfg.Upstream == "" {
			return nil, fmt.Errorf("gateway: no upstream address")
		}
		var err error
		cli, err = core.ConnectPolicy(cfg.Upstream, nil, Policy())
		if err != nil {
			return nil, fmt.Errorf("gateway: connect %s: %w", cfg.Upstream, err)
		}
		owns = true
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	rate, burst := cfg.RatePerSec, cfg.Burst
	if rate == 0 {
		rate = DefaultRatePerSec
	}
	if burst == 0 {
		burst = DefaultBurst
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		client:       cli,
		ownsCli:      owns,
		reg:          reg,
		mux:          http.NewServeMux(),
		limiter:      newRateLimiter(rate, burst),
		pingInterval: cfg.PingInterval,
		pongTimeout:  cfg.PongTimeout,
		sendBuffer:   cfg.SendBuffer,
		ctx:          ctx,
		cancel:       cancel,
		qcache:       map[string]queryBody{},
		rateLimited:  reg.Counter("gateway.http.rate_limited"),
		httpErrors:   reg.Counter("gateway.http.errors"),
		cacheHits:    reg.Counter("gateway.query.cache_hits"),
		cacheMisses:  reg.Counter("gateway.query.cache_misses"),
		wsActive:     reg.Gauge("gateway.ws.active"),
		wsAccepted:   reg.Counter("gateway.ws.accepted"),
		wsDropped:    reg.Counter("gateway.ws.dropped"),
		wsMessages:   reg.Counter("gateway.ws.messages"),

		childrenReused:   reg.Counter("gateway.query.children_reused"),
		childrenRendered: reg.Counter("gateway.query.children_rendered"),
	}
	if g.pingInterval <= 0 {
		g.pingInterval = DefaultPingInterval
	}
	if g.pongTimeout <= 0 {
		g.pongTimeout = DefaultPongTimeout
	}
	if g.sendBuffer <= 0 {
		g.sendBuffer = DefaultSendBuffer
	}
	g.routes()
	return g, nil
}

// routes builds the mux. /api/health and /metrics are exempt from rate
// limiting: they are exactly what dashboards and probes poll hardest when
// something is wrong, and throttling your own liveness checks manufactures
// outages.
func (g *Gateway) routes() {
	g.mux.HandleFunc("GET /api/query", g.route("query", true, g.handleQuery))
	g.mux.HandleFunc("GET /api/series", g.route("series", true, g.handleSeries))
	g.mux.HandleFunc("GET /api/alerts", g.route("alerts", true, g.handleAlerts))
	g.mux.HandleFunc("GET /api/telemetry", g.route("telemetry", true, g.handleTelemetry))
	g.mux.HandleFunc("GET /api/stats", g.route("stats", true, g.handleStats))
	g.mux.HandleFunc("GET /api/health", g.route("health", false, g.handleHealth))
	g.mux.HandleFunc("GET /api/traces", g.route("traces", true, g.handleTraces))
	g.mux.HandleFunc("GET /api/traces/{id}", g.route("trace", true, g.handleTrace))
	g.mux.HandleFunc("GET /ws", g.route("ws", true, g.handleWS))
	g.mux.HandleFunc("GET /metrics", g.route("metrics", false, g.handleMetrics))
	g.mux.Handle("GET /", g.dashboard())
}

// Handler is the gateway's HTTP surface, ready to mount on a server.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Close ends every WebSocket session, waits for them to drain, and (when
// the gateway dialed it) closes the upstream client.
func (g *Gateway) Close() error {
	g.cancel()
	g.wg.Wait()
	if g.ownsCli {
		return g.client.Close()
	}
	return nil
}

// route wraps a handler with the shared per-route plumbing: the token
// bucket (when limited), a request counter, and a latency histogram whose
// observations carry the request span's trace id so slow routes surface as
// exemplars in /metrics.
func (g *Gateway) route(label string, limited bool, h http.HandlerFunc) http.HandlerFunc {
	requests := g.reg.Counter("gateway.http." + label + ".requests")
	latency := g.reg.Histogram("gateway.http." + label + ".latency")
	return func(w http.ResponseWriter, r *http.Request) {
		if limited && !g.limiter.allow(r.RemoteAddr, time.Now()) {
			g.rateLimited.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		requests.Inc()
		ctx, span := telemetry.StartSpan(r.Context(), "gateway."+label)
		traceID := span.Context().TraceID // read before End recycles the span
		start := time.Now()
		h(w, r.WithContext(ctx))
		span.End()
		latency.ObserveTrace(time.Since(start), traceID)
	}
}

// handleMetrics exposes the gateway's own registry in Prometheus text
// form. The goroutine gauge is refreshed on every scrape — the smoke test
// uses it as its leak detector.
func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	g.reg.Gauge("gateway.process.goroutines").Set(int64(runtime.NumGoroutine()))
	var buf writeBuffer
	if err := g.reg.WriteText(&buf); err != nil {
		g.httpErrors.Inc()
		http.Error(w, "metrics encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf)
}

// writeBuffer is the minimal io.Writer for buffering WriteText before any
// status is committed.
type writeBuffer []byte

func (b *writeBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// queryBody is one qcache entry: a rendered body and the tree it renders.
type queryBody struct {
	tree *conduit.Node
	doc  *conduit.JSONDoc
}

// cachedQuery returns the stored JSON body for a query key, and whether it
// was rendered from this very tree. The pointer is the cache's only notion
// of freshness: another request may have moved the client's memo on since
// the body was stored, and then the stored body is the older tree's — the
// base a miss re-renders against.
func (g *Gateway) cachedQuery(key string, tree *conduit.Node) (*conduit.JSONDoc, bool) {
	g.qmu.Lock()
	defer g.qmu.Unlock()
	e, ok := g.qcache[key]
	return e.doc, ok && e.tree == tree
}

// storeQuery memoizes a rendered query body, dropping the table wholesale
// at the bound.
func (g *Gateway) storeQuery(key string, tree *conduit.Node, doc *conduit.JSONDoc) {
	g.qmu.Lock()
	defer g.qmu.Unlock()
	if len(g.qcache) >= maxQueryCache {
		g.qcache = map[string]queryBody{}
	}
	g.qcache[key] = queryBody{tree, doc}
}
