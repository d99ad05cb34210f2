package pilot

import (
	"fmt"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/des"
	"github.com/hpcobs/gosoma/internal/platform"
	"github.com/hpcobs/gosoma/internal/stats"
	"github.com/hpcobs/gosoma/internal/telemetry"
	"github.com/hpcobs/gosoma/internal/zmq"
)

// Scheduler self-telemetry. Placement latency is wall-clock time spent in
// TryPlace (the real cost of the placement search, independent of the
// simulated clock); the gauges track the allocation and queue the way the
// paper's Fig. 8 resource bands do.
var (
	telPlaceLatency  = telemetry.Default().Histogram("pilot.sched.place.latency")
	telSchedQueued   = telemetry.Default().Gauge("pilot.sched.queue.depth")
	telSchedRunning  = telemetry.Default().Gauge("pilot.sched.running")
	telSchedFreeCore = telemetry.Default().Gauge("pilot.sched.free_cores")
	telSchedFreeGPU  = telemetry.Default().Gauge("pilot.sched.free_gpus")
	telSchedCoreUtil = telemetry.Default().FloatGauge("pilot.sched.core_util")
)

// AgentConfig configures an Agent. Zero values select sensible defaults.
type AgentConfig struct {
	// Runtime supplies time and deferred execution (DES engine or wall
	// clock). Required.
	Runtime des.Runtime
	// Nodes is the pilot's allocation. Required.
	Nodes []*platform.Node
	// Profiler receives every state transition and execution event. A new
	// one is created when nil.
	Profiler *Profiler
	// Bus receives state notifications on topics "task.*" and "pilot.*".
	// Optional.
	Bus *zmq.PubSub

	// BootstrapSec is how long the agent takes to bootstrap after Start —
	// the light-blue band of Fig. 8. Default 20 s (simulated).
	BootstrapSec float64
	// SchedOverheadSec is the per-task scheduling cost — the purple band of
	// Fig. 8. Default 1 s.
	SchedOverheadSec float64
	// LaunchDelaySec separates launch_start from exec_start. Default 0.35 s
	// (matching Listing 1's gaps).
	LaunchDelaySec float64
	// RankSpawnSec separates exec_start from rank_start (and rank_stop from
	// exec_stop). Default 0.01 s.
	RankSpawnSec float64
	// Slowdown multiplies every task duration — the monitoring-overhead
	// hook used by the Scaling B experiment. Values < 1 are treated as 1.
	Slowdown float64
	// Seed drives the agent's reproducible noise (task failure draws).
	Seed uint64
}

func (c *AgentConfig) defaults() {
	if c.BootstrapSec == 0 {
		c.BootstrapSec = 20
	}
	if c.SchedOverheadSec == 0 {
		c.SchedOverheadSec = 1.0
	}
	if c.LaunchDelaySec == 0 {
		c.LaunchDelaySec = 0.35
	}
	if c.RankSpawnSec == 0 {
		c.RankSpawnSec = 0.01
	}
	if c.Slowdown < 1 {
		c.Slowdown = 1
	}
	if c.Profiler == nil {
		c.Profiler = NewProfiler()
	}
}

// Agent is the node-side pilot component: it bootstraps on the allocation,
// launches service tasks first (paper §2.3.1), then schedules and executes
// application tasks as resources free up. All methods are safe for
// concurrent use.
type Agent struct {
	cfg   AgentConfig
	sched *Scheduler
	rng   *stats.RNG

	mu        sync.Mutex
	ready     bool
	stopped   bool
	uidSeq    int
	queue     []*Task // waiting application tasks, FIFO
	svcQueue  []*Task // waiting service tasks
	running   map[string]*Task
	services  map[string]*Task // running service tasks
	doneCount int
	failCount int
	timeline  *Timeline
	registry  *ServiceRegistry
	hbStop    func()
	lastBeat  float64
	// onQuiescent fires (outside the lock) whenever the agent finds itself
	// with no queued or running application tasks.
	onQuiescent []func()
}

// NewAgent builds an agent over the allocation. Call Start to bootstrap.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("pilot: AgentConfig.Runtime is required")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("pilot: AgentConfig.Nodes is empty")
	}
	cfg.defaults()
	sched := NewScheduler(cfg.Nodes)
	return &Agent{
		cfg:      cfg,
		sched:    sched,
		rng:      stats.NewRNG(cfg.Seed),
		running:  map[string]*Task{},
		services: map[string]*Task{},
		timeline: NewTimeline(sched.TotalCores()),
	}, nil
}

// Profiler returns the agent's profile stream.
func (a *Agent) Profiler() *Profiler { return a.cfg.Profiler }

// Timeline returns the agent's resource utilization timeline.
func (a *Agent) Timeline() *Timeline { return a.timeline }

// Scheduler exposes the resource scheduler (read-only use).
func (a *Agent) Scheduler() *Scheduler { return a.sched }

// OnQuiescent registers fn to run whenever the agent drains its application
// workload (no queued or running non-service tasks).
func (a *Agent) OnQuiescent(fn func()) {
	a.mu.Lock()
	a.onQuiescent = append(a.onQuiescent, fn)
	a.mu.Unlock()
}

// Counts returns (queued, running, done, failed) application task counts.
func (a *Agent) Counts() (queued, running, done, failed int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue), len(a.running), a.doneCount, a.failCount
}

// Start begins the bootstrap. After BootstrapSec the agent becomes ready
// and starts scheduling (services first).
func (a *Agent) Start() {
	now := a.cfg.Runtime.Now()
	a.cfg.Profiler.RecordState(now, "agent.0000", PilotNew)
	a.publish("pilot.agent", string(PilotNew))
	// The whole allocation shows as bootstrap until the agent is up.
	all := make([]int, a.timeline.Cores())
	for i := range all {
		all[i] = i
	}
	a.timeline.AddRange(all, now, now+a.cfg.BootstrapSec, ResBootstrap, "agent")
	a.cfg.Runtime.AfterFunc(a.cfg.BootstrapSec, func() {
		a.mu.Lock()
		a.ready = true
		a.mu.Unlock()
		a.cfg.Profiler.RecordState(a.cfg.Runtime.Now(), "agent.0000", PilotActive)
		a.publish("pilot.agent", string(PilotActive))
		a.trySchedule()
	})
}

// Submit enqueues a task description, assigning a UID when absent. Service
// tasks are queued ahead of application tasks.
func (a *Agent) Submit(td TaskDescription) (*Task, error) {
	if err := td.Validate(); err != nil {
		return nil, err
	}
	if td.cores() > a.sched.TotalCores() {
		return nil, fmt.Errorf("pilot: task %q needs %d cores, allocation has %d",
			td.Name, td.cores(), a.sched.TotalCores())
	}
	if td.PinNode != "" {
		// A pinned task that exceeds its node's total capacity would block
		// the queue forever; reject it up front.
		var pinned *platform.Node
		for _, n := range a.sched.Nodes() {
			if n.Name == td.PinNode {
				pinned = n
				break
			}
		}
		if pinned == nil {
			return nil, fmt.Errorf("pilot: task %q pinned to unknown node %q", td.Name, td.PinNode)
		}
		if td.cores() > pinned.Spec.UsableCores() || td.gpus() > pinned.Spec.GPUs {
			return nil, fmt.Errorf("pilot: task %q (%d cores, %d gpus) exceeds node %s capacity",
				td.Name, td.cores(), td.gpus(), td.PinNode)
		}
	}
	now := a.cfg.Runtime.Now()
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return nil, fmt.Errorf("pilot: agent is stopped")
	}
	uid := td.UID
	if uid == "" {
		uid = fmt.Sprintf("task.%06d", a.uidSeq)
		a.uidSeq++
	}
	t := newTask(td, uid, now)
	a.mu.Unlock()

	a.cfg.Profiler.RecordState(now, uid, StateNew)
	a.recordTransition(t, StateTMGRScheduling, now)
	a.recordTransition(t, StateStagingInput, now)
	a.publish("task."+uid, string(StateStagingInput))

	// enqueue moves the staged task into the scheduler queue. It runs after
	// the input-staging delay (immediately for tasks without staging).
	enqueue := func() {
		a.mu.Lock()
		if a.stopped {
			a.mu.Unlock()
			a.recordTransition(t, StateCanceled, a.cfg.Runtime.Now())
			a.publish("task."+t.UID, string(StateCanceled))
			if t.Description.OnComplete != nil {
				t.Description.OnComplete(t)
			}
			return
		}
		if td.Service {
			a.svcQueue = append(a.svcQueue, t)
		} else {
			a.queue = append(a.queue, t)
		}
		a.mu.Unlock()
		a.recordTransition(t, StateAgentScheduling, a.cfg.Runtime.Now())
		a.publish("task."+t.UID, string(StateAgentScheduling))
		a.trySchedule()
	}
	// Defer via the runtime even for zero staging, so a burst of
	// submissions is handled in one pass (and so sim-mode submission never
	// recurses into execution).
	a.cfg.Runtime.AfterFunc(td.InputStagingSec, enqueue)
	return t, nil
}

// recordTransition applies and records a task state change; transitions are
// validated, and a violation is a programming error worth a panic in this
// runtime's single-writer design.
func (a *Agent) recordTransition(t *Task, s State, now float64) {
	if err := t.setState(s, now); err != nil {
		panic(err)
	}
	a.cfg.Profiler.RecordState(now, t.UID, s)
}

func (a *Agent) publish(topic, payload string) {
	if a.cfg.Bus != nil {
		_ = a.cfg.Bus.Publish(topic, payload)
	}
}

// tryPlace wraps Scheduler.TryPlace with a wall-clock latency observation.
func (a *Agent) tryPlace(td *TaskDescription, uid string) (Placement, bool) {
	start := time.Now()
	p, ok := a.sched.TryPlace(td, uid)
	telPlaceLatency.ObserveSince(start)
	return p, ok
}

// updateSchedGauges refreshes the scheduler telemetry gauges; queued/running
// come from the caller (read under a.mu), free resources from the scheduler.
func (a *Agent) updateSchedGauges(queued, running int) {
	telSchedQueued.Set(int64(queued))
	telSchedRunning.Set(int64(running))
	free := a.sched.FreeCores()
	total := a.sched.TotalCores()
	telSchedFreeCore.Set(int64(free))
	telSchedFreeGPU.Set(int64(a.sched.FreeGPUs()))
	if total > 0 {
		telSchedCoreUtil.Set(float64(total-free) / float64(total))
	}
}

// trySchedule places as many queued tasks as resources allow. Service
// tasks always go first; application tasks wait until every submitted
// service task is running (the paper's bootstrap ordering).
func (a *Agent) trySchedule() {
	for {
		a.mu.Lock()
		if !a.ready || a.stopped {
			a.mu.Unlock()
			return
		}
		if len(a.svcQueue) == 0 && len(a.queue) == 0 {
			quiet := len(a.running) == 0
			running := len(a.running)
			fns := append([]func(){}, a.onQuiescent...)
			a.mu.Unlock()
			a.updateSchedGauges(0, running)
			if quiet {
				for _, fn := range fns {
					fn()
				}
			}
			return
		}
		// Services strictly first; application tasks are placed first-fit
		// over a bounded backfill window (RP's continuous scheduler
		// backfills smaller tasks around a large head-of-line task; the
		// window keeps large-scale scheduling passes cheap).
		const backfillWindow = 64
		var t *Task
		var p Placement
		if len(a.svcQueue) > 0 {
			cand := a.svcQueue[0]
			if pl, ok := a.tryPlace(&cand.Description, cand.UID); ok {
				t, p = cand, pl
				a.svcQueue = a.svcQueue[1:]
			}
		} else {
			limit := len(a.queue)
			if limit > backfillWindow {
				limit = backfillWindow
			}
			// Queues are dominated by tasks of identical shape; once one
			// shape fails to place, skip its clones for this pass.
			type shape struct {
				ranks, cpr, gpr int
				spread          bool
				pin             string
			}
			failed := map[shape]bool{}
			for i := 0; i < limit; i++ {
				cand := a.queue[i]
				d := &cand.Description
				sh := shape{d.Ranks, d.CoresPerRank, d.GPUsPerRank, d.Spread, d.PinNode}
				if failed[sh] {
					continue
				}
				if pl, ok := a.tryPlace(d, cand.UID); ok {
					t, p = cand, pl
					a.queue = append(a.queue[:i], a.queue[i+1:]...)
					break
				}
				failed[sh] = true
			}
		}
		queued := len(a.svcQueue) + len(a.queue)
		if t == nil {
			running := len(a.running)
			a.mu.Unlock()
			a.updateSchedGauges(queued, running)
			return // nothing fits until resources free up
		}
		a.running[t.UID] = t
		running := len(a.running)
		a.mu.Unlock()
		a.updateSchedGauges(queued, running)
		a.launch(t, p)
	}
}

// launch walks the task through SCHEDULED → EXECUTING and schedules its
// Listing 1 events and completion.
func (a *Agent) launch(t *Task, p Placement) {
	now := a.cfg.Runtime.Now()
	t.mu.Lock()
	t.placement = p
	t.mu.Unlock()
	a.recordTransition(t, StateScheduled, now)
	a.publish("task."+t.UID, string(StateScheduled))

	coreIDs := a.sched.GlobalCoreIDs(p)
	schedEnd := now + a.cfg.SchedOverheadSec
	a.timeline.AddRange(coreIDs, now, schedEnd, ResSchedule, t.UID)

	// Declare CPU activity for the hardware monitor.
	activity := t.Description.CPUActivity
	if activity == 0 {
		activity = platform.DefaultActivity
	}
	for _, sl := range p.Slices {
		for _, n := range a.sched.Nodes() {
			if n.ID == sl.NodeID {
				n.SetActivity(t.UID, activity)
			}
		}
	}

	a.cfg.Runtime.AfterFunc(a.cfg.SchedOverheadSec, func() { a.execute(t, p, coreIDs) })
}

// execute emits the EXECUTING-state events and runs the task body.
func (a *Agent) execute(t *Task, p Placement, coreIDs []int) {
	rt := a.cfg.Runtime
	start := rt.Now()
	a.recordTransition(t, StateExecuting, start)
	a.publish("task."+t.UID, string(StateExecuting))
	prof := a.cfg.Profiler
	prof.RecordEvent(start, t.UID, EvLaunchStart)

	execStart := start + a.cfg.LaunchDelaySec
	rankStart := execStart + a.cfg.RankSpawnSec
	// Stamped with their scheduled times, like the stop events below: on a
	// real runtime a timer that fires late must not shrink the rank interval.
	rt.AfterFunc(a.cfg.LaunchDelaySec, func() {
		prof.RecordEvent(execStart, t.UID, EvExecStart)
	})
	rt.AfterFunc(rankStart-start, func() {
		prof.RecordEvent(rankStart, t.UID, EvRankStart)
	})

	if t.Description.Service {
		// Service tasks run until StopServices. They leave the running set
		// (which tracks application work for quiescence) and join the
		// service registry.
		a.mu.Lock()
		a.services[t.UID] = t
		delete(a.running, t.UID)
		a.mu.Unlock()
		a.trySchedule()
		return
	}

	dur := 0.0
	if t.Description.Duration != nil {
		dur = t.Description.Duration(ExecContext{Task: t, Placement: p, StartTime: rankStart})
		if dur < 0 {
			dur = 0
		}
	}
	dur *= a.cfg.Slowdown

	rankStop := rankStart + dur
	execStop := rankStop + a.cfg.RankSpawnSec
	launchStop := execStop + a.cfg.LaunchDelaySec/5

	rt.AfterFunc(launchStop-start, func() {
		end := rt.Now()
		failed := false
		if t.Description.Func != nil {
			if err := t.Description.Func(ExecContext{Task: t, Placement: p, StartTime: rankStart}); err != nil {
				failed = true
				t.mu.Lock()
				t.err = err
				t.mu.Unlock()
			}
		}
		prof.RecordEvent(end-(launchStop-rankStop), t.UID, EvRankStop)
		prof.RecordEvent(end-(launchStop-execStop), t.UID, EvExecStop)
		prof.RecordEvent(end, t.UID, EvLaunchStop)
		a.timeline.AddRange(coreIDs, start, end, ResRun, t.UID)
		// Output staging: resources stay held until the data is out.
		a.recordTransition(t, StateStagingOutput, end)
		a.publish("task."+t.UID, string(StateStagingOutput))
		rt.AfterFunc(t.Description.OutputStagingSec, func() {
			a.complete(t, p, failed)
		})
	})
}

// complete finalizes a task, frees its resources and reschedules.
func (a *Agent) complete(t *Task, p Placement, failed bool) {
	now := a.cfg.Runtime.Now()
	final := StateDone
	if failed {
		final = StateFailed
	}
	a.recordTransition(t, final, now)
	a.publish("task."+t.UID, string(final))
	a.sched.Release(t.UID, p)
	a.mu.Lock()
	delete(a.running, t.UID)
	if failed {
		a.failCount++
	} else {
		a.doneCount++
	}
	a.mu.Unlock()
	if t.Description.OnComplete != nil {
		t.Description.OnComplete(t)
	}
	a.trySchedule()
}

// ServiceTasks returns the currently running service tasks.
func (a *Agent) ServiceTasks() []*Task {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Task, 0, len(a.services))
	for _, t := range a.services {
		out = append(out, t)
	}
	return out
}

// StopServices cancels every running service task — the control command RP
// sends "once the workflow is completed" (paper §2.3.1).
func (a *Agent) StopServices() {
	a.mu.Lock()
	svcs := make([]*Task, 0, len(a.services))
	for uid, t := range a.services {
		svcs = append(svcs, t)
		delete(a.services, uid)
	}
	reg := a.registry
	a.mu.Unlock()
	now := a.cfg.Runtime.Now()
	if reg != nil {
		for _, t := range svcs {
			reg.Withdraw(t.Description.Name, StateCanceled)
		}
	}
	for _, t := range svcs {
		prof := a.cfg.Profiler
		prof.RecordEvent(now, t.UID, EvRankStop)
		prof.RecordEvent(now, t.UID, EvExecStop)
		prof.RecordEvent(now, t.UID, EvLaunchStop)
		a.recordTransition(t, StateCanceled, now)
		a.publish("task."+t.UID, string(StateCanceled))
		p := t.Placement()
		a.sched.Release(t.UID, p)
		coreIDs := a.sched.GlobalCoreIDs(p)
		_, _, execT, _ := t.Times()
		if execT > 0 {
			a.timeline.AddRange(coreIDs, execT, now, ResRun, t.UID)
		}
		if t.Description.OnComplete != nil {
			t.Description.OnComplete(t)
		}
	}
}

// Stop halts the agent: services are stopped, queued tasks are canceled,
// and further submissions are rejected. Running application tasks complete
// normally.
func (a *Agent) Stop() {
	a.StopServices()
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	queued := a.queue
	a.queue = nil
	a.svcQueue = nil
	hbStop := a.hbStop
	a.mu.Unlock()
	if hbStop != nil {
		hbStop()
	}
	now := a.cfg.Runtime.Now()
	for _, t := range queued {
		a.recordTransition(t, StateCanceled, now)
		a.publish("task."+t.UID, string(StateCanceled))
		if t.Description.OnComplete != nil {
			t.Description.OnComplete(t)
		}
	}
	a.cfg.Profiler.RecordState(now, "agent.0000", PilotDone)
	a.publish("pilot.agent", string(PilotDone))
}
