package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// soma.health: the degraded-mode observability RPC. Workflow observability
// must itself stay observable while degraded — operators need one call that
// answers "is the service up, is my client riding out an outage, and is any
// buffered data at risk". The service side reports liveness and
// load-shedding; the client stub folds in its local resilience state (the
// endpoint's circuit breaker and the publish spill buffer), which is
// meaningful precisely when the service half is unreachable.

// RPCHealth is the service liveness/degradation RPC.
const RPCHealth = "soma.health"

// HealthReport combines the service's self-reported health with the
// reporting client's local resilience state.
type HealthReport struct {
	// Service side; zero/empty when Status is "unreachable".
	Status      string  // "ok", "stopped" or "unreachable"
	UptimeSec   float64 // seconds since the service was constructed
	Publishes   int64   // total publishes ingested across instances
	CallsServed int64   // RPCs served by the engine
	ShedExpired int64   // calls shed because the caller's deadline had passed
	Err         string  // transport error when unreachable

	// Client side; always populated.
	Breaker  string // endpoint circuit-breaker state (see mercury.BreakerState)
	Degraded bool   // publishes currently buffered in the spill
	Spill    SpillStats

	// Cluster side; zero/empty unless the service joined a cluster
	// (Service.JoinCluster).
	ClusterSelf  string // this instance's address on the ring
	ClusterEpoch uint64 // current ring epoch
	ClusterAlive int    // live members including self
	ClusterPeers []ClusterPeerHealth
}

// ClusterPeerHealth is one peer's liveness as seen by the reporting instance.
type ClusterPeerHealth struct {
	ID     string
	Addr   string
	Alive  bool
	Misses int // consecutive failed pings
}

// handleHealth serves the service half of the report.
func (s *Service) handleHealth(_ context.Context, _ []byte) ([]byte, error) {
	resp := conduit.NewNode()
	status := "ok"
	if s.Stopped() {
		status = "stopped"
	}
	resp.SetString("status", status)
	resp.SetFloat("uptime_sec", time.Since(s.started).Seconds())
	var pubs int64
	for _, st := range s.Stats() {
		pubs += st.Publishes
	}
	resp.SetInt("publishes", pubs)
	resp.SetInt("calls_served", s.engine.Stats.CallsServed.Load())
	resp.SetInt("shed_expired", s.engine.Stats.ShedExpired.Load())
	if cl := s.cl.Load(); cl != nil {
		resp.SetString("cluster/self", cl.self.Addr)
		resp.SetInt("cluster/epoch", int64(cl.tracker.Ring().Epoch()))
		peers, alive := cl.tracker.Snapshot()
		resp.SetInt("cluster/alive", int64(alive))
		for i, p := range peers {
			base := fmt.Sprintf("cluster/peers/%03d", i)
			resp.SetString(base+"/id", p.ID)
			resp.SetString(base+"/addr", p.Addr)
			resp.SetBool(base+"/alive", p.Alive)
			resp.SetInt(base+"/misses", int64(p.Misses))
		}
	}
	return resp.EncodeBinary(), nil
}

// LocalHealth returns the client-side half of the report — breaker state and
// spill statistics — without touching the network. This is what remains
// observable while the service is down.
func (c *Client) LocalHealth() HealthReport {
	return HealthReport{
		Breaker:  c.ep.BreakerState(),
		Degraded: c.Degraded(),
		Spill:    c.Spill(),
	}
}

// Health queries soma.health and merges the client's local state. When the
// service cannot be reached the report still carries the local half, with
// Status "unreachable" and the transport error — callers (somactl health,
// somatop) render the degraded view instead of failing.
func (c *Client) Health() (HealthReport, error) {
	h := c.LocalHealth()
	resp, err := c.call(context.Background(), RPCHealth, nil)
	if err != nil {
		h.Status = "unreachable"
		h.Err = err.Error()
		return h, err
	}
	h.Status, _ = resp.StringVal("status")
	h.UptimeSec, _ = resp.Float("uptime_sec")
	h.Publishes, _ = resp.Int("publishes")
	h.CallsServed, _ = resp.Int("calls_served")
	h.ShedExpired, _ = resp.Int("shed_expired")
	if cn, ok := resp.Get("cluster"); ok {
		h.ClusterSelf, _ = cn.StringVal("self")
		if v, ok := cn.Int("epoch"); ok {
			h.ClusterEpoch = uint64(v)
		}
		if v, ok := cn.Int("alive"); ok {
			h.ClusterAlive = int(v)
		}
		if pn, ok := cn.Get("peers"); ok {
			for _, name := range pn.ChildNames() {
				sub := pn.Child(name)
				p := ClusterPeerHealth{}
				p.ID, _ = sub.StringVal("id")
				p.Addr, _ = sub.StringVal("addr")
				p.Alive, _ = sub.Bool("alive")
				if v, ok := sub.Int("misses"); ok {
					p.Misses = int(v)
				}
				h.ClusterPeers = append(h.ClusterPeers, p)
			}
		}
	}
	return h, nil
}

// RenderHealth prints one health panel (somactl health, somatop).
func RenderHealth(w io.Writer, h HealthReport) {
	fmt.Fprintf(w, "health: %s", h.Status)
	if h.Status == "ok" || h.Status == "stopped" {
		fmt.Fprintf(w, "  uptime=%s publishes=%d calls=%d shed_expired=%d",
			(time.Duration(h.UptimeSec * float64(time.Second))).Round(time.Second),
			h.Publishes, h.CallsServed, h.ShedExpired)
	}
	fmt.Fprintln(w)
	if h.Err != "" {
		fmt.Fprintf(w, "  error: %s\n", h.Err)
	}
	fmt.Fprintf(w, "  client: breaker=%s", h.Breaker)
	if h.Spill.Enabled {
		mode := "normal"
		if h.Degraded {
			mode = "DEGRADED (buffering)"
		}
		fmt.Fprintf(w, " mode=%s spill=%d/%d redelivered=%d dropped=%d",
			mode, h.Spill.Buffered, h.Spill.Capacity, h.Spill.Redelivered, h.Spill.Dropped)
	}
	fmt.Fprintln(w)
	if h.ClusterSelf != "" {
		fmt.Fprintf(w, "  cluster: self=%s epoch=%x alive=%d/%d\n",
			h.ClusterSelf, h.ClusterEpoch, h.ClusterAlive, len(h.ClusterPeers)+1)
		for _, p := range h.ClusterPeers {
			state := "alive"
			if !p.Alive {
				state = "DEAD"
			}
			fmt.Fprintf(w, "    peer %s (%s): %s misses=%d\n", p.ID, p.Addr, state, p.Misses)
		}
	}
}
