// Command somactl is the operator's client for a running SOMA service
// (cmd/somad or any embedded service): publish, query, stats and shutdown
// from the command line.
//
// Usage:
//
//	somactl -addr tcp://127.0.0.1:9900 stats
//	somactl -addr ... telemetry
//	somactl -addr ... query workflow RP/summary
//	somactl -addr ... publish application 'FOM/task.000001/rate/12.5' 1.82e9
//	somactl -addr ... watch hardware 'PROC/*/CPU Util'
//	somactl -addr ... alert set cpu-hot hardware 'PROC/*/CPU Util' '>' 90 10 critical
//	somactl -addr ... shutdown
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: somactl -addr <address> <command> [args]

commands:
  stats                           per-instance statistics
  telemetry [-spans N]            service self-telemetry (latency percentiles,
                                  gauges, counters, recent spans; N = span
                                  rows, default 20, 0 = all)
  query <namespace> [path]        print the merged subtree
  select <namespace> <pattern>    glob over leaf paths (* = segment, ** = tail)
  publish <namespace> <path> <v>  publish one float leaf at path
  watch <namespace|soma.alerts|all> [pattern]
                                  stream live updates pushed by the service
  alert set <name> <namespace> <pattern> <op> <threshold> <window_sec> [severity]
  alert rm <name>                 remove a threshold alert rule
  alert list                      print rules and current standings
  trace [-slow] [-n N]            list traces kept by the tail sampler
                                  (-slow orders by duration; N rows, default 20)
  trace <trace_id>                render one trace as a waterfall (id as
                                  printed by trace/telemetry, hex)
  profile -cpu <dur>              capture a CPU profile from the live service
  profile -kind <heap|goroutine|allocs|block|mutex>
                                  capture a snapshot profile; pprof bytes go
                                  to stdout: somactl profile -cpu 5s > cpu.pb.gz
  reset <namespace>               discard a namespace's stored data
  health                          service liveness + degradation report
                                  (uptime, shed calls, breaker state)
  shutdown                        ask the service to stop
`)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "", "service address (tcp://host:port)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if *addr == "" || len(args) == 0 {
		usage()
	}

	client, err := core.Connect(*addr, nil)
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	switch args[0] {
	case "stats":
		stats, err := client.Stats()
		if err != nil {
			fatal(err)
		}
		for _, ns := range core.Namespaces {
			st, ok := stats[ns]
			if !ok {
				continue
			}
			fmt.Printf("%-12s ranks=%d stripes=%d publishes=%d leaves=%d bytes_in=%d last=%.3f %s\n",
				ns, st.Ranks, st.Stripes, st.Publishes, st.Leaves, st.BytesIn, st.LastTime, st.Occupancy())
		}
		// Shared-instance services report under "shared".
		if st, ok := stats["shared"]; ok {
			fmt.Printf("%-12s ranks=%d stripes=%d publishes=%d leaves=%d bytes_in=%d %s\n",
				"shared", st.Ranks, st.Stripes, st.Publishes, st.Leaves, st.BytesIn, st.Occupancy())
		}
	case "telemetry":
		spanRows := 20
		if len(args) == 3 && args[1] == "-spans" {
			spanRows, err = strconv.Atoi(args[2])
			if err != nil {
				fatal(fmt.Errorf("span count %q: %w", args[2], err))
			}
		} else if len(args) != 1 {
			usage()
		}
		snap, err := client.Telemetry()
		if err != nil {
			fatal(err)
		}
		core.RenderTelemetry(os.Stdout, snap)
		core.RenderSpans(os.Stdout, snap.Spans, spanRows)
	case "query":
		if len(args) < 2 {
			usage()
		}
		path := ""
		if len(args) >= 3 {
			path = args[2]
		}
		tree, err := client.Query(core.Namespace(args[1]), path)
		if err != nil {
			fatal(err)
		}
		if tree.IsEmpty() && tree.NumChildren() == 0 {
			fmt.Println("(empty)")
			return
		}
		fmt.Print(tree.Format())
	case "select":
		if len(args) != 3 {
			usage()
		}
		matches, err := client.Select(core.Namespace(args[1]), args[2])
		if err != nil {
			fatal(err)
		}
		if len(matches) == 0 {
			fmt.Println("(no matches)")
			return
		}
		for _, m := range matches {
			if m.HasValue {
				fmt.Printf("%s = %g\n", m.Path, m.Value)
			} else {
				fmt.Println(m.Path)
			}
		}
	case "reset":
		if len(args) != 2 {
			usage()
		}
		if err := client.Reset(core.Namespace(args[1])); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	case "publish":
		if len(args) != 4 {
			usage()
		}
		v, err := strconv.ParseFloat(args[3], 64)
		if err != nil {
			fatal(fmt.Errorf("value %q: %w", args[3], err))
		}
		n := conduit.NewNode()
		n.SetFloat(args[2], v)
		if err := client.Publish(core.Namespace(args[1]), n); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	case "watch":
		if len(args) < 2 || len(args) > 3 {
			usage()
		}
		ns := core.Namespace(args[1])
		if args[1] == "all" {
			ns = ""
		}
		pattern := ""
		if len(args) == 3 {
			pattern = args[2]
		}
		watch(client, ns, pattern)
	case "alert":
		if len(args) < 2 {
			usage()
		}
		switch args[1] {
		case "set":
			rest := args[2:]
			if len(rest) < 6 || len(rest) > 7 {
				usage()
			}
			threshold, err := strconv.ParseFloat(rest[4], 64)
			if err != nil {
				fatal(fmt.Errorf("threshold %q: %w", rest[4], err))
			}
			window, err := strconv.ParseFloat(rest[5], 64)
			if err != nil {
				fatal(fmt.Errorf("window %q: %w", rest[5], err))
			}
			rule := core.AlertRule{
				Name: rest[0], NS: core.Namespace(rest[1]), Pattern: rest[2],
				Op: rest[3], Threshold: threshold, WindowSec: window,
			}
			if len(rest) == 7 {
				rule.Severity = rest[6]
			}
			if err := client.SetAlert(rule); err != nil {
				fatal(err)
			}
			fmt.Println("ok")
		case "rm":
			if len(args) != 3 {
				usage()
			}
			if err := client.RemoveAlert(args[2]); err != nil {
				fatal(err)
			}
			fmt.Println("ok")
		case "list":
			rules, states, err := client.Alerts()
			if err != nil {
				fatal(err)
			}
			core.RenderAlerts(os.Stdout, rules, states)
		default:
			usage()
		}
	case "trace":
		// With a hex trace id: fetch and render that trace's waterfall.
		// Without: list what the tail sampler kept.
		if len(args) >= 2 && args[1] != "" && args[1][0] != '-' {
			id, err := strconv.ParseUint(args[1], 16, 64)
			if err != nil {
				fatal(fmt.Errorf("trace id %q: %w", args[1], err))
			}
			tr, err := client.Trace(id)
			if err != nil {
				fatal(err)
			}
			core.RenderTraceWaterfall(os.Stdout, tr, 0)
			return
		}
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		slow := fs.Bool("slow", false, "order by root duration (slowest first)")
		n := fs.Int("n", 20, "rows")
		if err := fs.Parse(args[1:]); err != nil {
			usage()
		}
		sums, err := client.Traces(*n, *slow)
		if err != nil {
			fatal(err)
		}
		core.RenderTraceList(os.Stdout, sums)
	case "profile":
		fs := flag.NewFlagSet("profile", flag.ExitOnError)
		cpu := fs.Duration("cpu", 0, "capture a CPU profile for this duration")
		kind := fs.String("kind", "", "snapshot profile kind (heap, goroutine, allocs, block, mutex)")
		if err := fs.Parse(args[1:]); err != nil {
			usage()
		}
		k, dur := *kind, time.Duration(0)
		if *cpu > 0 {
			k, dur = "cpu", *cpu
		}
		if k == "" {
			usage()
		}
		p, err := client.Profile(k, dur)
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(p.Data); err != nil {
			fatal(err)
		}
		if p.Kind == "cpu" {
			fmt.Fprintf(os.Stderr, "somactl: %s profile, %d bytes, sampled %s\n", p.Kind, len(p.Data), p.Duration.Round(time.Millisecond))
		} else {
			fmt.Fprintf(os.Stderr, "somactl: %s profile, %d bytes\n", p.Kind, len(p.Data))
		}
	case "health":
		h, herr := client.Health()
		core.RenderHealth(os.Stdout, h)
		if herr != nil || h.Status != "ok" {
			os.Exit(1)
		}
	case "shutdown":
		if err := client.Shutdown(); err != nil {
			fatal(err)
		}
		fmt.Println("shutdown requested")
	default:
		usage()
	}
}

// watch streams live updates for a namespace (or the soma.alerts stream, or
// every namespace with ns == "") from the service's update log until
// interrupted; the subscription redials with backoff on its own.
func watch(client *core.Client, ns core.Namespace, pattern string) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	err := client.Watch(ctx, ns, pattern, func(u core.Update) error {
		printUpdate(u)
		return nil
	})
	if err != nil && ctx.Err() == nil {
		fatal(err)
	}
}

func printUpdate(u core.Update) {
	if u.Alert {
		state, _ := u.Tree.StringVal("state")
		rule, _ := u.Tree.StringVal("rule")
		key, _ := u.Tree.StringVal("key")
		sev, _ := u.Tree.StringVal("severity")
		value, _ := u.Tree.Float("value")
		threshold, _ := u.Tree.Float("threshold")
		fmt.Printf("[%.3f] ALERT %-8s %s (%s) %s value=%.3f threshold=%g\n",
			u.Time, state, rule, sev, key, value, threshold)
		return
	}
	fmt.Printf("── %s t=%.3f dropped=%d\n", u.NS, u.Time, u.Dropped)
	fmt.Print(u.Tree.Format())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "somactl:", err)
	os.Exit(1)
}
