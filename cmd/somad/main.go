// Command somad runs a standalone SOMA service over TCP — the form the
// service takes when deployed as a long-running service task on dedicated
// nodes. Clients connect with core.Connect(addr) and use the four-namespace
// monitoring API (publish/query/stats/shutdown).
//
// Usage:
//
//	somad -listen tcp://0.0.0.0:9900 -ranks 4
//	somad -listen ... -metrics :9091   # also serve /metrics (Prometheus text)
//
// The concrete address is printed on stdout (the service "makes its RPC
// address publicly known within the workflow"); the process exits when a
// client sends the shutdown RPC or on SIGINT/SIGTERM.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/des"
	"github.com/hpcobs/gosoma/internal/procfs"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// gcPercent paces the collector for the heap somad has: small and
// pointer-dense (trees, maps of series — the bulk arrays that used to pad it
// now grow with their data), under a read path that allocates a tree and a
// frame per snapshot. At Go's default of 100 that shape collects twice as
// often as the padded heap did (56 cycles against 27 over one firehose
// benchmark run) and pays about 10 % more service CPU per publish; 200 matches
// the old cycle count, 300 (18 cycles) leaves every latency and CPU row where
// it was at a third of the old resident memory. The three points are in
// CHANGES.md. ROADMAP item 1 re-measures the setting once reads stop
// allocating and decides then whether to lower it.
const gcPercent = 300

func main() {
	// GOGC set in the environment is the operator's word and wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	listen := flag.String("listen", "tcp://127.0.0.1:0", "address to listen on (tcp://host:port or inproc://name)")
	ranks := flag.Int("ranks", 1, "SOMA service ranks per namespace instance")
	shared := flag.Bool("shared", false, "use one shared instance instead of one per namespace")
	statsEvery := flag.Duration("stats-every", 0, "periodically log instance statistics (0 = off)")
	dump := flag.String("dump", "", "write a JSON snapshot of all namespaces to this file on shutdown (post-mortem analysis)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus-style text metrics at http://<addr>/metrics (e.g. :9091; empty = off)")
	hwmon := flag.Bool("hwmon", false, "sample the local /proc tree into the hardware namespace (live stream source)")
	hwmonEvery := flag.Duration("hwmon-interval", 30*time.Second, "local /proc sampling period (with -hwmon)")
	peers := flag.String("peers", "", "comma-separated peer addresses: join a sharded SOMA cluster with these instances")
	clusterID := flag.String("id", "", "stable cluster member id (with -peers; default: the listen address)")
	pingEvery := flag.Duration("ping", 0, "cluster liveness ping interval (0 = default 250ms)")
	flag.Parse()

	svc := core.NewService(core.ServiceConfig{
		RanksPerNamespace: *ranks,
		Shared:            *shared,
	})
	addr, err := svc.Listen(*listen)
	if err != nil {
		log.Fatalf("somad: %v", err)
	}
	fmt.Println(addr) // the published RPC address
	log.Printf("somad: serving %d rank(s) per namespace at %s", *ranks, addr)

	if *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		err := svc.JoinCluster(core.ClusterConfig{
			SelfID:       *clusterID,
			Peers:        peerList,
			PingInterval: *pingEvery,
		})
		if err != nil {
			log.Fatalf("somad: join cluster: %v", err)
		}
		log.Printf("somad: clustered with %d peer(s): %s", len(peerList), *peers)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			// Buffer the exposition so an encode failure can still become
			// a clean 500 instead of a torn 200.
			var buf bytes.Buffer
			if err := telemetry.Default().WriteText(&buf); err != nil {
				http.Error(w, "metrics encoding failed", http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.Write(buf.Bytes())
		})
		msrv := &http.Server{
			Addr:    *metricsAddr,
			Handler: mux,
			// Bound every phase of a scrape so a slowloris client can't
			// park a goroutine forever.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
		}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("somad: metrics server: %v", err)
			}
		}()
		defer msrv.Close()
		log.Printf("somad: metrics at http://%s/metrics", *metricsAddr)
	}

	// -hwmon turns somad itself into a hardware-namespace stream source: the
	// local /proc tree is sampled on a wall-clock cadence and published
	// in-process, so subscribers (somactl watch, somatop sparklines) see live
	// node data without a separate monitor daemon.
	if *hwmon {
		rt := des.NewRealRuntime()
		defer rt.Shutdown()
		src, err := procfs.NewRealSource("", des.NewRealClock())
		if err != nil {
			log.Fatalf("somad: -hwmon: %v", err)
		}
		mon, err := core.NewHWMonitor(core.HWMonitorConfig{
			Runtime:     rt,
			Source:      procfs.NewSampler(src),
			Pub:         core.LocalPublisher{Service: svc},
			IntervalSec: hwmonEvery.Seconds(),
		})
		if err != nil {
			log.Fatalf("somad: -hwmon: %v", err)
		}
		stopMon := mon.Start()
		defer stopMon()
		log.Printf("somad: sampling local /proc every %s into the hardware namespace", *hwmonEvery)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	var tick <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		tick = t.C
	}
	poll := time.NewTicker(200 * time.Millisecond)
	defer poll.Stop()
	shutdown := func(reason string) {
		log.Printf("somad: %s, shutting down", reason)
		if *dump != "" {
			snap, err := svc.Snapshot()
			if err == nil {
				err = snap.WriteFile(*dump)
			}
			if err != nil {
				log.Printf("somad: snapshot failed: %v", err)
			} else {
				log.Printf("somad: snapshot written to %s", *dump)
			}
		}
		svc.Close()
	}
	for {
		select {
		case sig := <-sigc:
			shutdown(sig.String())
			return
		case <-tick:
			for _, st := range svc.Stats() {
				log.Printf("somad: ns=%-12s publishes=%d leaves=%d bytes_in=%d",
					st.Namespace, st.Publishes, st.Leaves, st.BytesIn)
			}
		case <-poll.C:
			if svc.Stopped() {
				shutdown("shutdown RPC received")
				return
			}
		}
	}
}
