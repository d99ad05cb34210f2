package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/hpcobs/gosoma/internal/cluster"
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
// reporting client's local resilience state. The service half is the
// soma.health answer, its fields named on the wire by the conduit tags; the
// json tags name them in the gateway's /api/health.
type HealthReport struct {
	// Service side; zero/empty when Status is "unreachable".
	Status      string  `conduit:"status" json:"status"`             // "ok", "stopped" or "unreachable"
	UptimeSec   float64 `conduit:"uptime_sec" json:"uptime_sec"`     // seconds since the service was constructed
	Publishes   int64   `conduit:"publishes" json:"publishes"`       // total publishes ingested across instances
	CallsServed int64   `conduit:"calls_served" json:"calls_served"` // RPCs served by the engine
	ShedExpired int64   `conduit:"shed_expired" json:"shed_expired"` // calls shed because the caller's deadline had passed
	Err         string  `conduit:"-" json:"err,omitempty"`           // transport error when unreachable

	// Client side; always populated.
	Breaker  string     `conduit:"-" json:"breaker"`  // endpoint circuit-breaker state (see mercury.BreakerState)
	Degraded bool       `conduit:"-" json:"degraded"` // publishes currently buffered in the spill
	Spill    SpillStats `conduit:"-" json:"-"`

	// Cluster side; zero/empty unless the service joined a cluster
	// (Service.JoinCluster). JSON writes the epoch as a decimal string: a
	// JSON number past 2^53 is misread by JavaScript.
	ClusterSelf  string              `conduit:"cluster_self" json:"cluster_self,omitempty"`          // this instance's address on the ring
	ClusterEpoch uint64              `conduit:"cluster_epoch" json:"cluster_epoch,string,omitempty"` // current ring epoch
	ClusterAlive int                 `conduit:"cluster_alive" json:"cluster_alive,omitempty"`        // live members including self
	ClusterPeers []ClusterPeerHealth `conduit:"cluster_peers" json:"cluster_peers,omitempty"`
}

// ClusterPeerHealth is one peer's liveness as seen by the reporting instance.
type ClusterPeerHealth struct {
	ID     string `conduit:"id" json:"id"`
	Addr   string `conduit:"addr" json:"addr"`
	Alive  bool   `conduit:"alive" json:"alive"`
	Misses int    `conduit:"misses" json:"misses"` // consecutive failed pings
}

// handleHealth serves the service half of the report.
func (s *Service) handleHealth(_ context.Context, _ []byte) ([]byte, error) {
	h := HealthReport{
		Status:      "ok",
		UptimeSec:   time.Since(s.started).Seconds(),
		CallsServed: s.engine.Stats.CallsServed.Load(),
		ShedExpired: s.engine.Stats.ShedExpired.Load(),
	}
	if s.Stopped() {
		h.Status = "stopped"
	}
	for _, in := range s.distinctInstances() {
		pubs, _, _ := in.counters()
		h.Publishes += pubs
	}
	if cl := s.cl.Load(); cl != nil {
		h.ClusterSelf = cl.self.Addr
		h.ClusterEpoch = cl.tracker.Ring().Epoch()
		var peers []cluster.PeerState
		peers, h.ClusterAlive = cl.tracker.Snapshot()
		for _, p := range peers {
			h.ClusterPeers = append(h.ClusterPeers, ClusterPeerHealth{ID: p.ID, Addr: p.Addr, Alive: p.Alive, Misses: p.Misses})
		}
	}
	return conduit.Marshal(h).EncodeBinary(), nil
}

// Health queries soma.health and merges the client's local state — breaker
// and spill statistics, which need no network and so stay observable while
// the service is down. When the service cannot be reached the report still
// carries the local half, with Status "unreachable" and the transport error —
// callers (somactl health, somatop) render the degraded view instead of
// failing.
func (c *Client) Health() (HealthReport, error) {
	h := HealthReport{Breaker: c.ep.BreakerState(), Degraded: c.Degraded(), Spill: c.Spill()}
	if err := c.call(context.Background(), RPCHealth, nil, &h); err != nil {
		h.Status = "unreachable"
		h.Err = err.Error()
		return h, err
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
