// Command wfrun runs a small, real-time monitored workflow end to end on
// this machine: a SOMA service over real TCP, a pilot with a simulated
// Summit-shaped allocation executing millisecond-scale tasks on the wall
// clock, an RP monitor reading the live profile stream, and a hardware
// monitor sampling the machine's real /proc. It then prints the workflow
// summary, per-task execution times and the machine's CPU utilization as
// observed through SOMA — the zero-to-observability demo.
//
// Usage:
//
//	wfrun -tasks 8 -nodes 2 -task-ms 150 -interval 0.2
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/des"
	"github.com/hpcobs/gosoma/internal/pilot"
	"github.com/hpcobs/gosoma/internal/platform"
	"github.com/hpcobs/gosoma/internal/procfs"
)

func main() {
	tasks := flag.Int("tasks", 8, "application tasks to run")
	nodes := flag.Int("nodes", 2, "pilot nodes")
	taskMS := flag.Int("task-ms", 150, "per-task duration in milliseconds")
	ranks := flag.Int("ranks", 4, "MPI ranks per task")
	interval := flag.Float64("interval", 0.2, "monitoring interval in seconds")
	flag.Parse()

	rt := des.NewRealRuntime()
	defer rt.Shutdown()

	// SOMA service over real TCP.
	svc := core.NewService(core.ServiceConfig{RanksPerNamespace: 1})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		log.Fatalf("wfrun: %v", err)
	}
	defer svc.Close()
	fmt.Printf("SOMA service listening at %s\n", addr)
	client, err := core.Connect(addr, nil)
	if err != nil {
		log.Fatalf("wfrun: %v", err)
	}
	defer client.Close()
	// Coalesced publishing: the monitors enqueue and a background flusher
	// sends, so instrumentation never blocks on the service.
	client.EnableBatch(core.BatchConfig{})

	// Pilot over a Summit-shaped allocation, wall-clock execution.
	batch := platform.NewBatchSystem(platform.NewCluster(*nodes, platform.Summit()))
	sess := pilot.NewSession(rt, batch)
	pl, err := sess.SubmitPilot(pilot.PilotDescription{
		Nodes: *nodes, BootstrapSec: 0.05, SchedOverheadSec: 0.002,
	})
	if err != nil {
		log.Fatalf("wfrun: %v", err)
	}
	defer sess.Close()

	// RP monitor on the live profile stream.
	rpm, err := core.NewRPMonitor(core.RPMonitorConfig{
		Runtime: rt, Profiler: pl.Agent.Profiler(), Pub: client, IntervalSec: *interval,
	})
	if err != nil {
		log.Fatalf("wfrun: %v", err)
	}
	stopRP := rpm.Start()

	// Hardware monitor on this machine's real /proc.
	src, err := procfs.NewRealSource("", rt)
	if err != nil {
		log.Printf("wfrun: no /proc available (%v); hardware namespace disabled", err)
	} else {
		hwm, err := core.NewHWMonitor(core.HWMonitorConfig{
			Runtime: rt, Source: procfs.NewSampler(src), Pub: client, IntervalSec: *interval,
		})
		if err != nil {
			log.Fatalf("wfrun: %v", err)
		}
		stopHW := hwm.Start()
		defer stopHW()
	}

	// Submit tasks that burn real wall time.
	tm := sess.NewTaskManager(pl)
	var tds []pilot.TaskDescription
	dur := float64(*taskMS) / 1000
	for i := 0; i < *tasks; i++ {
		tds = append(tds, pilot.TaskDescription{
			Name:     fmt.Sprintf("app-%03d", i),
			Ranks:    *ranks,
			Duration: func(pilot.ExecContext) float64 { return dur },
		})
	}
	start := time.Now()
	submitted, err := tm.Submit(tds)
	if err != nil {
		log.Fatalf("wfrun: %v", err)
	}
	tm.WaitAll()
	stopRP() // final collection
	if err := client.Flush(); err != nil {
		log.Printf("wfrun: publishes lost: %v", err)
	}
	fmt.Printf("workflow of %d tasks finished in %v\n\n", len(submitted), time.Since(start).Round(time.Millisecond))

	// Everything below is read back *through SOMA*, not from the runtime.
	analysis := core.Analysis{Q: client}
	series, err := analysis.WorkflowSeries()
	if err != nil {
		log.Fatalf("wfrun: workflow series: %v", err)
	}
	if len(series) > 0 {
		last := series[len(series)-1]
		fmt.Printf("SOMA workflow namespace: %d snapshots; final state: done=%d failed=%d running=%d\n",
			len(series), last.Done, last.Failed, last.Running)
	}
	execTimes, err := analysis.ExecTimes()
	if err != nil {
		log.Fatalf("wfrun: exec times: %v", err)
	}
	fmt.Printf("per-task execution times observed by SOMA (%d tasks):\n", len(execTimes))
	for _, task := range submitted {
		fmt.Printf("  %s  %6.1f ms\n", task.UID, execTimes[task.UID]*1000)
	}
	if qw, err := analysis.QueueWaitStats(); err == nil && qw.N > 0 {
		fmt.Printf("agent queue wait (AGENT_SCHEDULING): mean %.1f ms, max %.1f ms over %d tasks\n",
			qw.Mean*1000, qw.Max*1000, qw.N)
	}
	hosts, _ := analysis.Hosts()
	for _, h := range hosts {
		util, err := analysis.CPUUtilSeries(h)
		if err != nil || len(util) == 0 {
			continue
		}
		fmt.Printf("hardware namespace: host %s, %d samples, last CPU util %.1f%%\n",
			h, len(util), util[len(util)-1].Util)
	}
	stats, err := client.Stats()
	if err == nil {
		for _, ns := range []core.Namespace{core.NSWorkflow, core.NSHardware} {
			st := stats[ns]
			fmt.Printf("service instance %-9s: %d publishes, %d leaves\n",
				ns, st.Publishes, st.Leaves)
		}
	}
}
