package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"

	"github.com/hpcobs/gosoma/internal/telemetry"
)

// The traced run (-trace 1): one set-up and one paced phase against the
// child-process fleet for the per-layer counts and the reported tails, read
// through public RPCs (soma.stats, soma.telemetry, the gateway's /metrics),
// then — with the fleet stopped, so the replay has the machine to itself —
// the in-process replay for the per-layer times.

// fleetCounters are cumulative counts read from the fleet and from the
// harness's own client-side registry.
type fleetCounters struct {
	seriesDropped, subDropped, forwards int64
	memberPubs                          []int64
	pubs, bytesIn                       int64
	gateHits, gateMisses, wsDropped     int64
	leaves, flushes, backpressure       int64
}

func (s *session) counters() (fleetCounters, error) {
	var c fleetCounters
	members, err := s.memberClients()
	if err != nil {
		return c, err
	}
	defer func() {
		for _, m := range members[1:] {
			m.Close()
		}
	}()
	for _, m := range members {
		snap, err := m.Telemetry()
		if err != nil {
			return c, fmt.Errorf("soma.telemetry: %w", err)
		}
		c.seriesDropped += snap.Counters["core.series.dropped"]
		c.subDropped += snap.Counters["zmq.pubsub.dropped"]
		c.forwards += snap.Counters["cluster.publish.forwards"]
		st, err := m.Stats()
		if err != nil {
			return c, fmt.Errorf("soma.stats: %w", err)
		}
		var pubs int64
		for _, is := range st {
			pubs += is.Publishes
			c.bytesIn += is.BytesIn
		}
		c.memberPubs = append(c.memberPubs, pubs)
		c.pubs += pubs
	}
	if s.f.gateURL != "" {
		m, err := scrapeMetrics(s.f.gateURL + "/metrics")
		if err != nil {
			return c, err
		}
		c.gateHits = m["gosoma_gateway_query_cache_hits"]
		c.gateMisses = m["gosoma_gateway_query_cache_misses"]
		c.wsDropped = m["gosoma_gateway_ws_dropped"]
	}
	// The publisher's coalescer counts into this process's registry.
	reg := telemetry.Default()
	c.leaves = reg.Counter("core.client.batch.leaves").Value()
	c.flushes = reg.Counter("core.client.batch.flushes").Value()
	c.backpressure = reg.Counter("core.client.batch.backpressure").Value()
	return c, nil
}

// scrapeMetrics reads the plain counter and gauge samples of a Prometheus
// text exposition. /metrics is exempt from the gateway's rate limiter.
func scrapeMetrics(url string) (map[string]int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func ratio(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (e *env) runTraced(w *workload, seed int64, seconds int) (*result, error) {
	tly := &tally{}
	s, setup, err := e.setUp(w, seed, tly)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			s.close()
			s.f.stop()
		}
	}
	defer stop()
	fmt.Fprintf(os.Stderr, "somaperf: %s: traced run: one fleet (set up in %.3fs), driven %.1fs cold (discarded) then %ds measured\n",
		w.name, setup, float64(coldMs)/1000, seconds)
	c0, err := s.counters()
	if err != nil {
		return nil, err
	}
	win, err := s.runWindow(windowPhase(float64(seconds), slicesPerRun))
	if err != nil {
		return nil, err
	}
	c1, err := s.counters()
	if err != nil {
		return nil, err
	}
	s.verify()
	stop()

	vals, err := e.runReplay(w, seed)
	if err != nil {
		return nil, err
	}

	// Counts of the paced phase (cold slice included), from the fleet.
	vals["core.client.leaves_per_flush"] = ratio(c1.leaves-c0.leaves, c1.flushes-c0.flushes)
	vals["core.client.backpressure_retries"] = float64(c1.backpressure - c0.backpressure)
	vals["core.client.wire_B_per_pub"] = ratio(c1.bytesIn-c0.bytesIn, c1.pubs-c0.pubs)
	vals["core.series.dropped"] = float64(c1.seriesDropped - c0.seriesDropped)
	vals["zmq.sub_dropped"] = float64(c1.subDropped - c0.subDropped)
	vals["cluster.forward_frac"] = ratio(c1.forwards-c0.forwards, c1.pubs-c0.pubs)
	var maxPubs int64
	for i := range c1.memberPubs {
		if d := c1.memberPubs[i] - c0.memberPubs[i]; d > maxPubs {
			maxPubs = d
		}
	}
	vals["cluster.shard_skew"] = ratio(maxPubs*int64(len(c1.memberPubs)), c1.pubs-c0.pubs)
	hits, misses := c1.gateHits-c0.gateHits, c1.gateMisses-c0.gateMisses
	vals["gateway.cache_hit_ratio"] = ratio(hits, hits+misses)
	vals["gateway.ws_dropped"] = float64(c1.wsDropped - c0.wsDropped)

	// Reported tails and harness health, from the same paced phase.
	vals["read_p95_ms"] = quantile(flatten(win.read), 0.95)
	vals["probe.ack_p99_ms"] = quantile(flatten(win.ack), 0.99)
	fresh := flatten(win.fresh)
	vals["probe.fresh_p95_ms"] = quantile(fresh, 0.95)
	vals["probe.fresh_p99_ms"] = quantile(fresh, 0.99)
	vals["gen.late_p99_ms"] = quantile(win.lateMs, 0.99)
	vals["gen.late_frac"] = float64(win.lateTicks) / math.Max(1, float64(win.ticks))
	vals["gen.backlog_end"] = float64(win.backlogEnd)
	fmt.Fprintf(os.Stderr, "somaperf: %s: tails from %d ack, %d fresh, %d read samples\n",
		w.name, len(flatten(win.ack)), len(fresh), len(flatten(win.read)))
	health(w, win, tly)

	res := &result{Metrics: map[string]metric{}}
	finish(res, tly)
	vals["run.fail_frac"] = float64(res.Failed) / math.Max(1, float64(res.Attempted))
	for _, m := range layerMetrics {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}
