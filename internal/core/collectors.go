package core

import (
	"fmt"
	"sync"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/des"
	"github.com/hpcobs/gosoma/internal/pilot"
	"github.com/hpcobs/gosoma/internal/procfs"
)

// Publisher is the outbound half of the SOMA client API that collectors
// need. *Client implements it (RPC path); LocalPublisher implements it for
// in-process wiring. Either way the tree is encoded before Publish returns
// and never retained, so a caller may reuse it.
type Publisher interface {
	Publish(ns Namespace, n *conduit.Node) error
}

// LocalPublisher publishes straight into a service, bypassing RPC — the
// "local function call" flavour of the client stub.
type LocalPublisher struct{ Service *Service }

// Publish ingests directly.
func (lp LocalPublisher) Publish(ns Namespace, n *conduit.Node) error {
	return lp.Service.Publish(ns, n, 0)
}

// ---------------------------------------------------------------------------
// RP monitor client: one per workflow (paper Fig. 2, square 3). It
// periodically reads the profile stream RP generates, summarizes workflow
// state, and publishes to the workflow namespace.

// RPMonitorConfig configures an RPMonitor.
type RPMonitorConfig struct {
	Runtime  des.Runtime
	Profiler *pilot.Profiler
	Pub      Publisher
	// IntervalSec is the monitoring frequency (60 s in most paper runs).
	IntervalSec float64
}

// RPMonitor is the workflow-namespace collector daemon.
type RPMonitor struct {
	cfg    RPMonitorConfig
	mu     sync.Mutex
	cursor int
	// current state per entity, for summary counts
	state map[string]pilot.State
	// stateEntry holds when each entity entered its current state, and
	// durations accumulates per-state dwell times — the monitor
	// "calculates the time spent in each state" (paper §3.1).
	stateEntry map[string]float64
	durations  map[string]map[pilot.State]float64
	ticks      int64
	errs       int64
	stopFn     func()
}

// NewRPMonitor builds the daemon; call Start.
func NewRPMonitor(cfg RPMonitorConfig) (*RPMonitor, error) {
	if cfg.Runtime == nil || cfg.Profiler == nil || cfg.Pub == nil {
		return nil, fmt.Errorf("soma: RPMonitorConfig requires Runtime, Profiler and Pub")
	}
	if cfg.IntervalSec <= 0 {
		cfg.IntervalSec = 60
	}
	return &RPMonitor{
		cfg:        cfg,
		state:      map[string]pilot.State{},
		stateEntry: map[string]float64{},
		durations:  map[string]map[pilot.State]float64{},
	}, nil
}

// Start begins periodic collection; the returned stop function halts it.
// One final collection runs immediately on stop so shutdown does not lose
// the tail of the workflow.
func (m *RPMonitor) Start() (stop func()) {
	m.stopFn = des.EveryRT(m.cfg.Runtime, m.cfg.IntervalSec, func() bool {
		m.Collect()
		return true
	})
	return func() {
		m.stopFn()
		m.Collect()
	}
}

// Ticks returns how many collections ran; Errs how many failed to publish.
func (m *RPMonitor) Ticks() (ticks, errs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticks, m.errs
}

// Interval returns the monitor's publish cadence in seconds. Collectors are
// stream sources: each tick's publish is fanned out to live subscribers, so
// the cadence bounds how stale a subscriber's view can be.
func (m *RPMonitor) Interval() float64 { return m.cfg.IntervalSec }

// Collect performs one gather-summarize-publish cycle. It is exported so
// simulated experiments and tests can force a cycle deterministically.
func (m *RPMonitor) Collect() {
	m.mu.Lock()
	events, cursor := m.cfg.Profiler.Since(m.cursor)
	m.cursor = cursor
	now := m.cfg.Runtime.Now()

	tree := conduit.NewNode()
	// uniquePath disambiguates entries that share a timestamp (several state
	// transitions can be recorded in the same instant) so nothing is lost in
	// the merged tree.
	uniquePath := func(base string) string {
		if !tree.Has(base) {
			return base
		}
		for k := 1; ; k++ {
			p := fmt.Sprintf("%s#%d", base, k)
			if !tree.Has(p) {
				return p
			}
		}
	}
	touched := map[string]bool{}
	for _, ev := range events {
		base := fmt.Sprintf("RP/%s", ev.UID)
		ts := fmt.Sprintf("%.7f", ev.Time)
		if ev.Name == "state" {
			// Account the dwell time in the state being left.
			if prev, ok := m.state[ev.UID]; ok {
				d := m.durations[ev.UID]
				if d == nil {
					d = map[pilot.State]float64{}
					m.durations[ev.UID] = d
				}
				d[prev] += ev.Time - m.stateEntry[ev.UID]
				touched[ev.UID] = true
			}
			m.state[ev.UID] = ev.State
			m.stateEntry[ev.UID] = ev.Time
			tree.SetString(uniquePath(base+"/states/"+ts), string(ev.State))
		} else {
			// Listing 1 layout: RP/task.000000/<timestamp>: "<event>"
			tree.SetString(uniquePath(base+"/"+ts), ev.Name)
		}
	}
	// Publish cumulative per-state durations for every entity that
	// transitioned this tick (merge semantics overwrite older values).
	for uid := range touched {
		for st, d := range m.durations[uid] {
			tree.SetFloat(fmt.Sprintf("RP/%s/state_durations/%s", uid, st), d)
		}
	}

	// Workflow summary: counts of pending/running/completed tasks — "the
	// total number of pending tasks, completed tasks, and so on".
	var pending, running, done, failed, canceled int
	for uid, st := range m.state {
		if len(uid) < 5 || uid[:5] != "task." {
			continue
		}
		switch st {
		case pilot.StateDone:
			done++
		case pilot.StateFailed:
			failed++
		case pilot.StateCanceled:
			canceled++
		case pilot.StateExecuting, pilot.StateScheduled, pilot.StateStagingOutput:
			running++
		default:
			pending++
		}
	}
	sum := fmt.Sprintf("RP/summary/%.7f", now)
	tree.SetInt(sum+"/pending", int64(pending))
	tree.SetInt(sum+"/running", int64(running))
	tree.SetInt(sum+"/done", int64(done))
	tree.SetInt(sum+"/failed", int64(failed))
	tree.SetInt(sum+"/canceled", int64(canceled))
	m.ticks++
	pub := m.cfg.Pub
	m.mu.Unlock()

	if err := pub.Publish(NSWorkflow, tree); err != nil {
		m.mu.Lock()
		m.errs++
		m.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Hardware monitor client: one per compute node (paper Fig. 2, squares 4),
// running on a reserved core, publishing /proc data to the hardware
// namespace.

// HWMonitorConfig configures a HWMonitor.
type HWMonitorConfig struct {
	Runtime des.Runtime
	// Source supplies samples: a procfs.Sampler over a real or synthetic
	// source.
	Source interface {
		Sample() (procfs.Sample, error)
		Hostname() string
	}
	Pub Publisher
	// IntervalSec is the sampling period (30 s in the OpenFOAM runs, 60 s
	// in the DDMD runs).
	IntervalSec float64
}

// HWMonitor is the hardware-namespace collector daemon.
type HWMonitor struct {
	cfg   HWMonitorConfig
	mu    sync.Mutex
	ticks int64
	errs  int64
}

// NewHWMonitor builds the daemon; call Start.
func NewHWMonitor(cfg HWMonitorConfig) (*HWMonitor, error) {
	if cfg.Runtime == nil || cfg.Source == nil || cfg.Pub == nil {
		return nil, fmt.Errorf("soma: HWMonitorConfig requires Runtime, Source and Pub")
	}
	if cfg.IntervalSec <= 0 {
		cfg.IntervalSec = 60
	}
	return &HWMonitor{cfg: cfg}, nil
}

// Start begins periodic sampling; the returned stop function halts it.
func (m *HWMonitor) Start() (stop func()) {
	return des.EveryRT(m.cfg.Runtime, m.cfg.IntervalSec, func() bool {
		m.Collect()
		return true
	})
}

// Ticks returns how many samples ran; Errs how many failed.
func (m *HWMonitor) Ticks() (ticks, errs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticks, m.errs
}

// Interval returns the sampling cadence in seconds (see RPMonitor.Interval).
func (m *HWMonitor) Interval() float64 { return m.cfg.IntervalSec }

// Collect performs one sample-and-publish cycle.
func (m *HWMonitor) Collect() {
	sample, err := m.cfg.Source.Sample()
	if err == nil {
		err = m.cfg.Pub.Publish(NSHardware, sample.ToConduit())
	}
	m.mu.Lock()
	m.ticks++
	if err != nil {
		m.errs++
	}
	m.mu.Unlock()
}
