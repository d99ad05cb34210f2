package gosoma_test

// Top-level integration test: the full stack on the wall clock over real
// TCP — a SOMA service daemon, a pilot executing tasks in real time, the RP
// and hardware monitor daemons, the TAU plugin, an application reporter,
// and the analysis layer reading everything back through RPC. This is the
// deployment shape of cmd/wfrun, asserted end to end.

import (
	"fmt"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/des"
	"github.com/hpcobs/gosoma/internal/pilot"
	"github.com/hpcobs/gosoma/internal/platform"
	"github.com/hpcobs/gosoma/internal/procfs"
	"github.com/hpcobs/gosoma/internal/tau"
)

func TestRealTimeEndToEndOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration in -short mode")
	}
	rt := des.NewRealRuntime()
	defer rt.Shutdown()

	// SOMA service over TCP.
	svc := core.NewService(core.ServiceConfig{RanksPerNamespace: 2})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	client, err := core.Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.EnableBatch(core.BatchConfig{})

	// Pilot on a Summit-shaped allocation, wall-clock execution.
	batch := platform.NewBatchSystem(platform.NewCluster(2, platform.Summit()))
	sess := pilot.NewSession(rt, batch)
	pl, err := sess.SubmitPilot(pilot.PilotDescription{
		Nodes: 2, BootstrapSec: 0.02, SchedOverheadSec: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	pl.Agent.StartHeartbeats(0.05)
	watcher := sess.WatchPilot(pl, 5, 0.1, nil)
	defer watcher.Stop()

	// Monitor daemons.
	rpm, err := core.NewRPMonitor(core.RPMonitorConfig{
		Runtime: rt, Profiler: pl.Agent.Profiler(), Pub: client, IntervalSec: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopRP := rpm.Start()
	hwSrc, err := procfs.NewRealSource("", rt)
	if err != nil {
		t.Skipf("no /proc on this platform: %v", err)
	}
	hwm, err := core.NewHWMonitor(core.HWMonitorConfig{
		Runtime: rt, Source: procfs.NewSampler(hwSrc), Pub: client, IntervalSec: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHW := hwm.Start()

	// TAU plugin publishing through the same client.
	plugin := tau.NewPlugin(func(n *conduit.Node) error {
		return client.Publish(core.NSPerformance, n)
	})

	// A small heterogeneous workload: each task self-reports a figure of
	// merit and a per-rank profile.
	tm := sess.NewTaskManager(pl)
	var tds []pilot.TaskDescription
	for i := 0; i < 6; i++ {
		i := i
		tds = append(tds, pilot.TaskDescription{
			Name:  fmt.Sprintf("app-%d", i),
			Ranks: 4, Duration: func(pilot.ExecContext) float64 { return 0.05 },
			OutputStagingSec: 0.005,
			Func: func(ctx pilot.ExecContext) error {
				rep, err := core.NewAppReporter(client, rt, ctx.Task.UID)
				if err != nil {
					return err
				}
				if err := rep.Report("steps", float64(100*i)); err != nil {
					return err
				}
				return plugin.Report([]tau.Profile{{
					TaskUID: ctx.Task.UID, Host: "vm", Rank: 0,
					Seconds: map[string]float64{"MPI_Recv": 0.02, ".TAU application": 0.03},
				}})
			},
		})
	}
	tasks, err := tm.Submit(tds)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { tm.WaitAll(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workflow timed out")
	}
	stopRP()
	stopHW()
	// The client coalesces: the monitors' shutdown collections are queued to
	// a background flusher, so flush before querying what they published.
	if err := client.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// Everything must be observable through the RPC analysis layer.
	analysis := core.Analysis{Q: client}
	for _, task := range tasks {
		if task.State() != pilot.StateDone {
			t.Fatalf("%s = %s (%v)", task.UID, task.State(), task.Err())
		}
		et, err := analysis.ExecTime(task.UID)
		if err != nil {
			t.Fatalf("%s exec time: %v", task.UID, err)
		}
		if et < 0.04 || et > 0.5 {
			t.Fatalf("%s exec time %.3f implausible", task.UID, et)
		}
	}
	profs, err := analysis.TAUProfiles()
	if err != nil || len(profs) != len(tasks) {
		t.Fatalf("tau profiles = %d, %v", len(profs), err)
	}
	fomTasks, err := analysis.FOMTasks()
	if err != nil || len(fomTasks) != len(tasks) {
		t.Fatalf("fom tasks = %d, %v", len(fomTasks), err)
	}
	hosts, err := analysis.Hosts()
	if err != nil || len(hosts) != 1 {
		t.Fatalf("hosts = %v, %v", hosts, err)
	}
	if watcher.Fired() {
		t.Fatal("healthy pilot declared dead")
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range core.Namespaces {
		if stats[ns].Publishes == 0 {
			t.Fatalf("namespace %s saw no traffic", ns)
		}
	}
	// Post-mortem snapshot still answers after everything stops.
	snap, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	offline := core.Analysis{Q: snap}
	if uids, err := offline.TaskUIDs(); err != nil || len(uids) < len(tasks) {
		t.Fatalf("offline uids = %v, %v", uids, err)
	}
}
