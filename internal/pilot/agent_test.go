package pilot

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/des"
	"github.com/hpcobs/gosoma/internal/platform"
	"github.com/hpcobs/gosoma/internal/zmq"
)

func simAgent(t *testing.T, nodes int) (*des.Engine, *Agent) {
	t.Helper()
	eng := des.NewEngine()
	a, err := NewAgent(AgentConfig{
		Runtime: eng,
		Nodes:   summitNodes(nodes),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	return eng, a
}

func fixedDur(d float64) DurationFunc {
	return func(ExecContext) float64 { return d }
}

func TestAgentConfigValidation(t *testing.T) {
	if _, err := NewAgent(AgentConfig{Nodes: summitNodes(1)}); err == nil {
		t.Fatal("missing runtime accepted")
	}
	if _, err := NewAgent(AgentConfig{Runtime: des.NewEngine()}); err == nil {
		t.Fatal("empty allocation accepted")
	}
}

func TestTaskLifecycleEventsMatchListing1(t *testing.T) {
	eng, a := simAgent(t, 1)
	task, err := a.Submit(TaskDescription{Name: "of", Ranks: 20, Duration: fixedDur(100)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if task.State() != StateDone {
		t.Fatalf("state = %s", task.State())
	}
	// State sequence must be the full pipeline.
	var states []State
	var events []string
	for _, e := range a.Profiler().EntityEvents(task.UID) {
		if e.Name == "state" {
			states = append(states, e.State)
		} else {
			events = append(events, e.Name)
		}
	}
	wantStates := []State{StateNew, StateTMGRScheduling, StateStagingInput,
		StateAgentScheduling, StateScheduled, StateExecuting,
		StateStagingOutput, StateDone}
	if len(states) != len(wantStates) {
		t.Fatalf("states = %v", states)
	}
	for i := range states {
		if states[i] != wantStates[i] {
			t.Fatalf("state[%d] = %s want %s", i, states[i], wantStates[i])
		}
	}
	// Execution events must be exactly Listing 1's, in order.
	if len(events) != len(ExecutingEvents) {
		t.Fatalf("events = %v", events)
	}
	for i := range events {
		if events[i] != ExecutingEvents[i] {
			t.Fatalf("event[%d] = %s want %s", i, events[i], ExecutingEvents[i])
		}
	}
	// Execution time ≈ model duration.
	if et := task.ExecTime(); et < 100 || et > 102 {
		t.Fatalf("exec time = %v want ~100", et)
	}
}

func TestResourcesReleasedAfterCompletion(t *testing.T) {
	eng, a := simAgent(t, 1)
	for i := 0; i < 3; i++ {
		if _, err := a.Submit(TaskDescription{Ranks: 42, Duration: fixedDur(10)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	_, running, done, failed := a.Counts()
	if running != 0 || done != 3 || failed != 0 {
		t.Fatalf("counts: running=%d done=%d failed=%d", running, done, failed)
	}
	if a.Scheduler().FreeCores() != 42 {
		t.Fatalf("free cores = %d", a.Scheduler().FreeCores())
	}
}

func TestSerializedWhenNodeFull(t *testing.T) {
	eng, a := simAgent(t, 1)
	// Two 42-core tasks on a 42-core node must run back to back.
	t1, _ := a.Submit(TaskDescription{Ranks: 42, Duration: fixedDur(50)})
	t2, _ := a.Submit(TaskDescription{Ranks: 42, Duration: fixedDur(50)})
	eng.Run()
	_, _, e1, d1 := t1.Times()
	_, _, e2, _ := t2.Times()
	if e2 < d1 {
		t.Fatalf("t2 started at %v before t1 finished at %v", e2, d1)
	}
	_ = e1
}

func TestBackfillAroundLargeTask(t *testing.T) {
	eng, a := simAgent(t, 1)
	// Occupy 30 cores, then queue a 42-core task (doesn't fit) and a
	// 10-core task (fits): the small one must backfill.
	blocker, _ := a.Submit(TaskDescription{Ranks: 30, Duration: fixedDur(100)})
	big, _ := a.Submit(TaskDescription{Ranks: 42, Duration: fixedDur(10)})
	small, _ := a.Submit(TaskDescription{Ranks: 10, Duration: fixedDur(10)})
	eng.Run()
	_, _, smallStart, _ := small.Times()
	_, _, bigStart, _ := big.Times()
	_, _, _, blockerDone := blocker.Times()
	if smallStart >= blockerDone {
		t.Fatalf("small task did not backfill: started %v, blocker done %v", smallStart, blockerDone)
	}
	if bigStart < blockerDone {
		t.Fatalf("big task started %v before blocker finished %v", bigStart, blockerDone)
	}
}

func TestServiceTasksScheduledFirst(t *testing.T) {
	eng := des.NewEngine()
	a, err := NewAgent(AgentConfig{Runtime: eng, Nodes: summitNodes(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Submit an app task BEFORE the service task; the service must still
	// execute first (paper: "the SOMA service task needs to be scheduled
	// before any application tasks").
	app, _ := a.Submit(TaskDescription{Name: "app", Ranks: 4, Duration: fixedDur(10)})
	svc, _ := a.Submit(TaskDescription{Name: "soma", Ranks: 4, Service: true})
	a.Start()
	eng.Run()

	_, _, appExec, _ := app.Times()
	_, _, svcExec, _ := svc.Times()
	if svcExec == 0 || appExec == 0 {
		t.Fatal("tasks never executed")
	}
	if svcExec > appExec {
		t.Fatalf("service started at %v after app at %v", svcExec, appExec)
	}
	if svc.State() != StateExecuting {
		t.Fatalf("service state = %s, should still be running", svc.State())
	}
	if got := len(a.ServiceTasks()); got != 1 {
		t.Fatalf("service tasks = %d", got)
	}
	// Shutdown control command cancels services and frees their resources.
	a.StopServices()
	if svc.State() != StateCanceled {
		t.Fatalf("service state after stop = %s", svc.State())
	}
	if a.Scheduler().FreeCores() != 84 {
		t.Fatalf("free cores after stop = %d", a.Scheduler().FreeCores())
	}
}

func TestBootstrapDelaysScheduling(t *testing.T) {
	eng := des.NewEngine()
	a, _ := NewAgent(AgentConfig{Runtime: eng, Nodes: summitNodes(1), BootstrapSec: 30})
	a.Start()
	task, _ := a.Submit(TaskDescription{Ranks: 1, Duration: fixedDur(1)})
	eng.Run()
	_, sched, _, _ := task.Times()
	if sched < 30 {
		t.Fatalf("task scheduled at %v, before bootstrap completed at 30", sched)
	}
	// Timeline shows the bootstrap band across all cores.
	occ := a.Timeline().Occupancy(30, 1)
	if occ[0][ResBootstrap] < 0.99 {
		t.Fatalf("bootstrap occupancy = %v", occ[0][ResBootstrap])
	}
}

func TestTaskFailureViaFunc(t *testing.T) {
	eng, a := simAgent(t, 1)
	boom := errors.New("segfault")
	bad, _ := a.Submit(TaskDescription{
		Ranks:    1,
		Duration: fixedDur(5),
		Func:     func(ExecContext) error { return boom },
	})
	good, _ := a.Submit(TaskDescription{
		Ranks:    1,
		Duration: fixedDur(5),
		Func:     func(ExecContext) error { return nil },
	})
	eng.Run()
	if bad.State() != StateFailed || !errors.Is(bad.Err(), boom) {
		t.Fatalf("bad = %s err %v", bad.State(), bad.Err())
	}
	if good.State() != StateDone || good.Err() != nil {
		t.Fatalf("good = %s err %v", good.State(), good.Err())
	}
	_, _, done, failed := a.Counts()
	if done != 1 || failed != 1 {
		t.Fatalf("done=%d failed=%d", done, failed)
	}
	if a.Scheduler().FreeCores() != 42 {
		t.Fatal("failed task leaked resources")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, a := simAgent(t, 1)
	if _, err := a.Submit(TaskDescription{Ranks: -1}); err == nil {
		t.Fatal("negative ranks accepted")
	}
	if _, err := a.Submit(TaskDescription{Ranks: 1, CPUActivity: 2}); err == nil {
		t.Fatal("activity > 1 accepted")
	}
	if _, err := a.Submit(TaskDescription{Ranks: 43}); err == nil {
		t.Fatal("task larger than allocation accepted")
	}
}

func TestStopCancelsQueued(t *testing.T) {
	eng, a := simAgent(t, 1)
	running, _ := a.Submit(TaskDescription{Ranks: 42, Duration: fixedDur(100)})
	queued, _ := a.Submit(TaskDescription{Ranks: 42, Duration: fixedDur(100)})
	eng.RunUntil(50) // running has started, queued still waiting
	a.Stop()
	if queued.State() != StateCanceled {
		t.Fatalf("queued state = %s", queued.State())
	}
	if _, err := a.Submit(TaskDescription{Ranks: 1}); err == nil {
		t.Fatal("submission after Stop accepted")
	}
	eng.Run()
	if running.State() != StateDone {
		t.Fatalf("running task should finish normally, got %s", running.State())
	}
}

func TestQuiescentCallback(t *testing.T) {
	eng, a := simAgent(t, 1)
	fired := 0
	a.OnQuiescent(func() { fired++ })
	a.Submit(TaskDescription{Ranks: 4, Duration: fixedDur(10)})
	eng.Run()
	if fired == 0 {
		t.Fatal("quiescent callback never fired")
	}
}

func TestBusNotifications(t *testing.T) {
	eng := des.NewEngine()
	bus := zmq.NewPubSub()
	a, _ := NewAgent(AgentConfig{Runtime: eng, Nodes: summitNodes(1), Bus: bus})
	ch, cancel := bus.Subscribe("task.")
	defer cancel()
	a.Start()
	task, _ := a.Submit(TaskDescription{Ranks: 1, Duration: fixedDur(1)})
	eng.Run()
	var last string
	count := 0
	for {
		select {
		case m := <-ch:
			if m.Topic == "task."+task.UID {
				last = m.Payload.(string)
				count++
			}
			continue
		default:
		}
		break
	}
	if count < 4 || last != string(StateDone) {
		t.Fatalf("notifications = %d, last = %q", count, last)
	}
}

func TestActivityDeclaredOnNodes(t *testing.T) {
	eng := des.NewEngine()
	nodes := summitNodes(1)
	a, _ := NewAgent(AgentConfig{Runtime: eng, Nodes: nodes})
	a.Start()
	task, _ := a.Submit(TaskDescription{Ranks: 4, CPUActivity: 0.2, Duration: fixedDur(50)})
	eng.RunUntil(30) // task is running
	if got := nodes[0].ActivityOf(task.UID); got != 0.2 {
		t.Fatalf("activity = %v", got)
	}
	eng.Run()
	if got := nodes[0].ActivityOf(task.UID); got != platform.DefaultActivity {
		t.Fatal("activity should clear after completion")
	}
}

func TestSlowdownStretchesTasks(t *testing.T) {
	eng := des.NewEngine()
	a, _ := NewAgent(AgentConfig{Runtime: eng, Nodes: summitNodes(1), Slowdown: 1.05})
	a.Start()
	task, _ := a.Submit(TaskDescription{Ranks: 1, Duration: fixedDur(100)})
	eng.Run()
	if et := task.ExecTime(); et < 104.5 || et > 106 {
		t.Fatalf("exec time = %v want ~105", et)
	}
}

func TestUtilizationTimelineForWorkflow(t *testing.T) {
	eng, a := simAgent(t, 2)
	for i := 0; i < 4; i++ {
		a.Submit(TaskDescription{Ranks: 42, Duration: fixedDur(60)})
	}
	end := eng.Run()
	tl := a.Timeline()
	// 4 × 42-core × 60 s tasks on 84 cores: two waves, high utilization
	// between bootstrap and drain.
	u := tl.Utilization(end)
	if u < 0.5 {
		t.Fatalf("overall run utilization = %v, want > 0.5", u)
	}
	occ := tl.Occupancy(end, 10)
	sawRun, sawSched := false, false
	for _, b := range occ {
		if b[ResRun] > 0.5 {
			sawRun = true
		}
		if b[ResSchedule] > 0 {
			sawSched = true
		}
	}
	if !sawRun || !sawSched {
		t.Fatalf("occupancy missing run/schedule bands: %v", occ)
	}
}

func TestRealRuntimeEndToEnd(t *testing.T) {
	rt := des.NewRealRuntime()
	defer rt.Shutdown()
	a, err := NewAgent(AgentConfig{
		Runtime:          rt,
		Nodes:            summitNodes(1),
		BootstrapSec:     0.01,
		SchedOverheadSec: 0.001,
		LaunchDelaySec:   0.001,
		RankSpawnSec:     0.0005,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	var tasks []*Task
	for i := 0; i < 5; i++ {
		task, err := a.Submit(TaskDescription{
			Name:     fmt.Sprintf("real-%d", i),
			Ranks:    8,
			Duration: fixedDur(0.02),
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	deadline := time.After(10 * time.Second)
	for _, task := range tasks {
		select {
		case <-task.Done():
		case <-deadline:
			t.Fatal("timeout waiting for real-mode tasks")
		}
		if task.State() != StateDone {
			t.Fatalf("task %s state = %s", task.UID, task.State())
		}
	}
	if a.Scheduler().FreeCores() != 42 {
		t.Fatalf("free cores = %d", a.Scheduler().FreeCores())
	}
}

func TestSessionAndTaskManager(t *testing.T) {
	eng := des.NewEngine()
	cluster := platform.NewCluster(5, platform.Summit())
	batch := platform.NewBatchSystem(cluster)
	sess := NewSession(eng, batch)

	p, err := sess.SubmitPilot(PilotDescription{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if batch.FreeNodes() != 1 {
		t.Fatalf("free nodes = %d", batch.FreeNodes())
	}
	tm := sess.NewTaskManager(p)
	tasks, err := tm.Submit([]TaskDescription{
		{Name: "a", Ranks: 20, Duration: fixedDur(30)},
		{Name: "b", Ranks: 41, Duration: fixedDur(30)},
	})
	if err != nil || len(tasks) != 2 {
		t.Fatalf("submit: %v, %d tasks", err, len(tasks))
	}
	eng.Run()
	for _, task := range tm.Tasks() {
		if task.State() != StateDone {
			t.Fatalf("%s = %s", task.UID, task.State())
		}
	}
	if got, ok := tm.Get(tasks[0].UID); !ok || got != tasks[0] {
		t.Fatal("Get by uid failed")
	}
	p.Cancel()
	if batch.FreeNodes() != 5 {
		t.Fatalf("free nodes after cancel = %d", batch.FreeNodes())
	}
	p.Cancel() // idempotent
	tm.Close()
	if _, err := tm.Submit([]TaskDescription{{Ranks: 1}}); err == nil {
		t.Fatal("submit after close accepted")
	}
	sess.Close()
	if _, err := sess.SubmitPilot(PilotDescription{Nodes: 1}); err == nil {
		t.Fatal("pilot after session close accepted")
	}
}

func TestSubmitPilotFailsWhenClusterFull(t *testing.T) {
	eng := des.NewEngine()
	batch := platform.NewBatchSystem(platform.NewCluster(2, platform.Summit()))
	sess := NewSession(eng, batch)
	if _, err := sess.SubmitPilot(PilotDescription{Nodes: 3}); err == nil {
		t.Fatal("oversized pilot accepted")
	}
	// The failed pilot must not leak nodes.
	if batch.FreeNodes() != 2 {
		t.Fatalf("free nodes = %d", batch.FreeNodes())
	}
}

func TestTaskManagerValidationRejectsBatch(t *testing.T) {
	eng := des.NewEngine()
	batch := platform.NewBatchSystem(platform.NewCluster(2, platform.Summit()))
	sess := NewSession(eng, batch)
	p, _ := sess.SubmitPilot(PilotDescription{Nodes: 1})
	tm := sess.NewTaskManager(p)
	_, err := tm.Submit([]TaskDescription{
		{Name: "ok", Ranks: 1},
		{Name: "bad", Ranks: -2},
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if len(tm.Tasks()) != 0 {
		t.Fatal("partial batch staged despite validation failure")
	}
}

func TestStagingDelaysAndHoldsResources(t *testing.T) {
	eng, a := simAgent(t, 1)
	task, err := a.Submit(TaskDescription{
		Ranks:            42,
		Duration:         fixedDur(100),
		InputStagingSec:  30,
		OutputStagingSec: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	// During input staging the task holds no resources.
	eng.RunUntil(25)
	if task.State() != StateStagingInput {
		t.Fatalf("state at t=25 = %s", task.State())
	}
	if a.Scheduler().FreeCores() != 42 {
		t.Fatal("staging task claimed resources early")
	}
	// After staging + bootstrap it runs.
	eng.RunUntil(90)
	if task.State() != StateExecuting {
		t.Fatalf("state at t=90 = %s", task.State())
	}
	// During output staging, resources are still held (RP semantics).
	eng.RunUntil(135)
	if task.State() != StateStagingOutput {
		t.Fatalf("state at t=135 = %s", task.State())
	}
	if a.Scheduler().FreeCores() != 0 {
		t.Fatal("resources released before output staging finished")
	}
	eng.Run()
	if task.State() != StateDone {
		t.Fatalf("final state = %s", task.State())
	}
	if a.Scheduler().FreeCores() != 42 {
		t.Fatal("resources leaked")
	}
	// The profile shows dwell in both staging states.
	d := a.Profiler().StateDurations(task.UID, eng.Now())
	if d[StateStagingInput] < 29.9 || d[StateStagingInput] > 30.1 {
		t.Fatalf("input staging dwell = %v", d[StateStagingInput])
	}
	if d[StateStagingOutput] < 14.9 || d[StateStagingOutput] > 15.1 {
		t.Fatalf("output staging dwell = %v", d[StateStagingOutput])
	}
}

func TestStopDuringInputStagingCancels(t *testing.T) {
	eng, a := simAgent(t, 1)
	task, _ := a.Submit(TaskDescription{
		Ranks: 1, Duration: fixedDur(10), InputStagingSec: 50,
	})
	canceled := false
	task.Description.OnComplete = nil // set below via fresh submit instead
	task2, _ := a.Submit(TaskDescription{
		Ranks: 1, Duration: fixedDur(10), InputStagingSec: 50,
		OnComplete: func(tk *Task) { canceled = tk.State() == StateCanceled },
	})
	eng.RunUntil(25)
	a.Stop()
	eng.Run()
	if task.State() != StateCanceled || task2.State() != StateCanceled {
		t.Fatalf("states = %s, %s", task.State(), task2.State())
	}
	if !canceled {
		t.Fatal("OnComplete not fired for staging-canceled task")
	}
}

func TestNegativeStagingRejected(t *testing.T) {
	_, a := simAgent(t, 1)
	if _, err := a.Submit(TaskDescription{Ranks: 1, InputStagingSec: -1}); err == nil {
		t.Fatal("negative input staging accepted")
	}
	if _, err := a.Submit(TaskDescription{Ranks: 1, OutputStagingSec: -1}); err == nil {
		t.Fatal("negative output staging accepted")
	}
}

// lateRuntime fires every timer shorter than a second `lag` seconds late —
// a loaded box whose launch timers slip while the long stop timer does not.
type lateRuntime struct {
	*des.Engine
	lag float64
}

func (r lateRuntime) AfterFunc(d float64, fn func()) (cancel func()) {
	if d < 1 {
		d += r.lag
	}
	return r.Engine.AfterFunc(d, fn)
}

// TestLateStartTimersKeepRankInterval: exec_start and rank_start carry their
// scheduled times, as rank_stop and exec_stop do, so timers that fire late do
// not shrink the interval analyses read as the task's execution time.
func TestLateStartTimersKeepRankInterval(t *testing.T) {
	const dur, lag = 10.0, 5.0
	eng := des.NewEngine()
	a, err := NewAgent(AgentConfig{Runtime: lateRuntime{eng, lag}, Nodes: summitNodes(1)})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	task, err := a.Submit(TaskDescription{Name: "late", Ranks: 4, Duration: fixedDur(dur)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if task.State() != StateDone {
		t.Fatalf("state = %s", task.State())
	}
	at := map[string]float64{}
	for _, e := range a.Profiler().EntityEvents(task.UID) {
		at[e.Name] = e.Time
	}
	if got := at[EvRankStop] - at[EvRankStart]; got < dur {
		t.Fatalf("rank interval = %.3f s with start timers %.0f s late, want >= the task's %.0f s", got, lag, dur)
	}
	if got := at[EvExecStop] - at[EvExecStart]; got < dur {
		t.Fatalf("exec interval = %.3f s, want >= %.0f s", got, dur)
	}
}
