// Command somatop is a live terminal view of a running SOMA service: it
// polls the service at an interval and renders the workflow summary, task
// throughput, per-node CPU utilization, per-instance service counters, and
// the service's self-telemetry (RPC latency percentiles, queue depths) —
// the operator's window into a monitored workflow.
//
// Transient query failures are warned about and retried on the next tick;
// somatop only exits on SIGINT/SIGTERM (or after one snapshot with -once).
//
// Usage:
//
//	somatop -addr tcp://127.0.0.1:9900 -interval 1s
//	somatop -addr ... -once                # single snapshot, no loop
//	somatop -addr ... -telemetry=false     # hide the telemetry panel
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hpcobs/gosoma/internal/core"
)

func main() {
	addr := flag.String("addr", "", "service address (tcp://host:port)")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	once := flag.Bool("once", false, "print one snapshot and exit")
	showTel := flag.Bool("telemetry", true, "show the service self-telemetry panel")
	traceRows := flag.Int("traces", 5, "slowest kept traces to list (0 = hide the panel)")
	seriesPat := flag.String("series", "PROC/*/CPU Util", "rollup series key pattern for the sparkline panel (empty = off)")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "usage: somatop -addr tcp://host:port [-interval 2s] [-once] [-telemetry=false] [-series <pattern>]")
		os.Exit(2)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	// The client is (re)established lazily: somatop may start before the
	// service does, and a TCP endpoint does not survive a service restart,
	// so every failure drops the connection and the next tick redials.
	var client *core.Client
	defer func() {
		if client != nil {
			client.Close()
		}
	}()

	failures := 0
	for {
		var sb strings.Builder
		err := func() error {
			if client == nil {
				c, err := core.Connect(*addr, nil)
				if err != nil {
					return err
				}
				client = c
			}
			return refresh(&sb, *addr, client, core.Analysis{Q: client}, *showTel, *traceRows, *seriesPat)
		}()
		if err != nil {
			// Transient failures (service not up yet, restarting, network
			// blip): warn and retry on the next tick rather than dying.
			if client != nil {
				client.Close()
				client = nil
			}
			failures++
			fmt.Fprintf(os.Stderr, "somatop: refresh failed (%d in a row): %v — retrying in %s\n",
				failures, err, *interval)
			if *once {
				os.Exit(1)
			}
		} else {
			failures = 0
			if !*once {
				// Clear screen between refreshes.
				fmt.Print("\033[H\033[2J")
			}
			fmt.Print(sb.String())
			if *once {
				return
			}
		}
		select {
		case sig := <-sigc:
			fmt.Fprintf(os.Stderr, "somatop: %s, exiting\n", sig)
			return
		case <-time.After(*interval):
		}
	}
}

// refresh renders one full frame. An error means the service could not be
// reached at all this tick; partial analysis failures degrade to omitted
// panels inside core.RenderSummary.
func refresh(sb *strings.Builder, addr string, client *core.Client, analysis core.Analysis, showTel bool, traceRows int, seriesPat string) error {
	stats, err := client.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, "SOMA %s — %s\n\n", addr, time.Now().Format(time.TimeOnly))
	core.RenderSummary(sb, analysis, stats)
	renderHealthPanel(sb, client)
	renderSeriesPanel(sb, client, seriesPat)
	renderAlertsPanel(sb, client)
	if showTel {
		snap, err := client.Telemetry()
		if err != nil {
			return err
		}
		sb.WriteString("\n")
		core.RenderTelemetry(sb, snap)
	}
	renderTracesPanel(sb, client, traceRows)
	// Delta-poll footer: the analysis panels above poll through the client's
	// generation memo, so steady-state refreshes collapse to tiny frames or
	// to the few children that changed — show how much wire traffic that has
	// saved so far.
	if ds := client.DeltaStats(); ds.Unchanged+ds.Partial > 0 {
		fmt.Fprintf(sb, "\ndelta polls: %d unchanged, %d partial, %s saved on the wire\n",
			ds.Unchanged, ds.Partial, formatBytes(ds.BytesSaved))
	}
	return nil
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// renderHealthPanel shows the soma.health report: service uptime, shed
// calls, and the client's breaker/degradation state. Services without the
// health RPC (older builds) degrade to an omitted panel.
func renderHealthPanel(sb *strings.Builder, client *core.Client) {
	h, err := client.Health()
	if err != nil {
		return
	}
	sb.WriteString("\n")
	core.RenderHealth(sb, h)
}

// maxSparkRows bounds the sparkline panel on large allocations.
const maxSparkRows = 12

// renderSeriesPanel queries the hardware namespace's rollup series matching
// pattern and renders one sparkline per key. Services without rollup support
// (or with no matching series yet) degrade to an omitted panel.
func renderSeriesPanel(sb *strings.Builder, client *core.Client, pattern string) {
	if pattern == "" {
		return
	}
	keys, err := client.SeriesKeys(core.NSHardware, pattern)
	if err != nil || len(keys) == 0 {
		return
	}
	hidden := 0
	if len(keys) > maxSparkRows {
		hidden = len(keys) - maxSparkRows
		keys = keys[:maxSparkRows]
	}
	series := make([]core.Series, 0, len(keys))
	for _, key := range keys {
		se, err := client.Series(core.NSHardware, key, core.Level1s, 0)
		if err == nil {
			series = append(series, se)
		}
	}
	sb.WriteString("\n")
	core.RenderSeriesSparklines(sb, fmt.Sprintf("series (%s, 1s buckets):", pattern), series)
	if hidden > 0 {
		fmt.Fprintf(sb, "  ... and %d more\n", hidden)
	}
}

// renderTracesPanel lists the slowest traces the service's tail sampler
// kept — the "what is the p99 actually doing" panel. Drill into any row with
// `somactl trace <id>`. Services without the trace RPCs (older builds)
// degrade to an omitted panel.
func renderTracesPanel(sb *strings.Builder, client *core.Client, rows int) {
	if rows <= 0 {
		return
	}
	sums, err := client.Traces(rows, true)
	if err != nil || len(sums) == 0 {
		return
	}
	sb.WriteString("\n")
	core.RenderTraceList(sb, sums)
}

// renderAlertsPanel lists threshold-alert rules and standings. Services
// without alert support degrade to an omitted panel; an empty rule set is
// omitted too (unlike somactl alert list, which prints the placeholder).
func renderAlertsPanel(sb *strings.Builder, client *core.Client) {
	rules, states, err := client.Alerts()
	if err != nil || len(rules) == 0 {
		return
	}
	sb.WriteString("\n")
	core.RenderAlerts(sb, rules, states)
}
