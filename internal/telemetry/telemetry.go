// Package telemetry is gosoma's self-observation spine: a stdlib-only,
// allocation-conscious metrics and tracing core used by every layer of the
// stack (mercury RPC, the core service, zmq coordination, the pilot
// scheduler). The paper's position — observability must be built *into* the
// workflow stack with measurably low overhead (SOMA Tables 1–2) — applies to
// the observability system itself, so this package is designed for hot
// paths:
//
//   - Counter and Gauge are single atomic words;
//   - Histogram is a fixed array of atomic log2 buckets (no locks, no
//     allocation per observation) from which p50/p95/p99 are extracted at
//     read time;
//   - Span carries an 8-byte trace id / 8-byte span id pair through
//     context.Context and across mercury frame headers, and completed spans
//     land in a fixed-size ring (old spans are overwritten, never grow).
//
// A process-wide Default registry aggregates everything; the service exposes
// it via the soma.telemetry RPC (conduit-encoded, see internal/core) and
// optionally as Prometheus-style text exposition (somad -metrics).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic integer gauge (queue depths, in-flight calls, free
// cores). Unlike Counter it may go down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic float64 gauge (utilization percentages, ratios).
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry names and owns a process's metrics. All accessors are
// get-or-create and safe for concurrent use; the returned metric pointers
// are stable, so hot paths should look a metric up once and keep the
// pointer.
type Registry struct {
	mu      sync.RWMutex
	counter map[string]*Counter
	gauge   map[string]*Gauge
	fgauge  map[string]*FloatGauge
	hist    map[string]*Histogram

	// spans is the recent-span ring (default capacity 256, resizable via
	// Configure); traces, when non-nil, is the tail-sampling trace store
	// fed by every Span.End. Both are swapped atomically so hot-path span
	// completion never takes the registry lock.
	spans  atomic.Pointer[spanRing]
	traces atomic.Pointer[TraceStore]
}

// NewRegistry returns an empty registry (default span ring, no trace
// store — Configure installs one).
func NewRegistry() *Registry {
	r := &Registry{
		counter: map[string]*Counter{},
		gauge:   map[string]*Gauge{},
		fgauge:  map[string]*FloatGauge{},
		hist:    map[string]*Histogram{},
	}
	r.spans.Store(newSpanRing(spanRingSize))
	return r
}

// Options reconfigures a registry's tracing machinery (Registry.Configure).
type Options struct {
	// SpanRingCapacity resizes the recent-span ring; the ring restarts
	// empty. <= 0 keeps the current capacity.
	SpanRingCapacity int
	// TraceStore, when non-nil, installs a trace store built from these
	// options, replacing any existing store (which restarts sampling
	// state). See TraceStoreOptions for the zero-value defaults.
	TraceStore *TraceStoreOptions
}

// Configure applies opts. Safe to call at any time; spans completing
// concurrently land in either the old or new ring/store.
func (r *Registry) Configure(opts Options) {
	if opts.SpanRingCapacity > 0 {
		r.spans.Store(newSpanRing(opts.SpanRingCapacity))
	}
	if opts.TraceStore != nil {
		r.traces.Store(newTraceStore(*opts.TraceStore, r))
	}
}

// Traces returns the registry's trace store, or nil when none is
// configured.
func (r *Registry) Traces() *TraceStore { return r.traces.Load() }

// defaultRegistry is the process-wide registry every layer records into.
// It ships with a default-bounded trace store, so any process that starts
// spans can answer soma.trace.* queries without configuration.
var defaultRegistry = NewRegistry()

func init() {
	defaultRegistry.Configure(Options{TraceStore: &TraceStoreOptions{}})
}

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counter[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counter[name]; c == nil {
		c = &Counter{}
		r.counter[name] = c
	}
	return c
}

// Gauge returns the named integer gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauge[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauge[name]; g == nil {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.RLock()
	g := r.fgauge[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.fgauge[name]; g == nil {
		g = &FloatGauge{}
		r.fgauge[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hist[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hist[name]; h == nil {
		h = &Histogram{}
		r.hist[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry, safe to encode and ship:
// the soma.telemetry answer, its fields named on the wire by the conduit tags
// and in the gateway's /api/telemetry by the json tags.
type Snapshot struct {
	Counters   map[string]int64             `conduit:"counters" json:"counters"`
	Gauges     map[string]float64           `conduit:"gauges" json:"gauges"`
	Histograms map[string]HistogramSnapshot `conduit:"hist" json:"histograms"`
	Spans      []SpanSnapshot               `conduit:"spans" json:"spans"`
}

// Snapshot captures every metric and the recent-span ring. Metric reads are
// atomic but not mutually consistent — counters keep moving while the
// snapshot is taken, which is fine for monitoring.
func (r *Registry) Snapshot() *Snapshot {
	out := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.RLock()
	for name, c := range r.counter {
		out.Counters[name] = c.Value()
	}
	for name, g := range r.gauge {
		out.Gauges[name] = float64(g.Value())
	}
	for name, g := range r.fgauge {
		out.Gauges[name] = g.Value()
	}
	for name, h := range r.hist {
		out.Histograms[name] = h.Snapshot()
	}
	r.mu.RUnlock()
	out.Spans = r.spans.Load().snapshot()
	return out
}

// SortedNames returns m's keys in sorted order — stable iteration for
// rendering and exposition.
func SortedNames[M ~map[string]V, V any](m M) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
