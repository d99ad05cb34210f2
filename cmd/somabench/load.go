// somabench load — the wire-batching scale experiment: N logical publishers
// multiplexed over a small pool of coalescing connections into one SOMA
// service, measuring sustained publishes/sec and ack-latency tails.
//
// The shape mirrors the paper's Scaling experiments pushed to their limit:
// instead of one monitor daemon per node, every logical publisher is a
// single-leaf sample stream ("one sensor"), and the client-side coalescer
// packs thousands of them onto each connection. The server runs somad's
// configuration — rollups on; ingest is decode-free either way — and a
// monitor goroutine issues periodic merged-tree queries so the run includes
// fold cost — steady-state numbers, not an append-only sprint.
//
// Loss accounting is exact: every publish is acknowledged (counted by
// Client.Published at send-acknowledgement), and the server's per-instance
// stats must account for the same number of records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// loadReport is the machine-readable result of one load run (-json).
type loadReport struct {
	Publishers      int     `json:"publishers"`
	Conns           int     `json:"conns"`
	Peers           int     `json:"peers"`
	DurationSec     float64 `json:"duration_sec"`
	Publishes       int64   `json:"publishes"`
	PublishesPerSec float64 `json:"publishes_per_sec"`
	P50Micros       float64 `json:"ack_p50_us"`
	P95Micros       float64 `json:"ack_p95_us"`
	P99Micros       float64 `json:"ack_p99_us"`
	BytesPerOp      float64 `json:"wire_bytes_per_op"`
	BatchFlushes    int64   `json:"batch_flushes"`
	LeavesPerFlush  float64 `json:"leaves_per_flush"`
	ServerPublishes int64   `json:"server_publishes"`
	Lost            int64   `json:"lost"`
}

func runLoad(argv []string) int {
	fs := flag.NewFlagSet("somabench load", flag.ExitOnError)
	publishers := fs.Int("publishers", 100000, "logical publishers (each owns one sample path)")
	conns := fs.Int("conns", 8, "client connections the publishers multiplex over")
	duration := fs.Duration("duration", 10*time.Second, "measured run length")
	batchLeaves := fs.Int("batch-leaves", 0, "coalescer leaf-count flush threshold (0 = default)")
	batchBytes := fs.Int("batch-bytes", 0, "coalescer byte-budget flush threshold (0 = default)")
	batchAge := fs.Duration("batch-age", 0, "coalescer age flush bound (0 = default)")
	peers := fs.Int("peers", 1, "in-process service instances joined into one sharded cluster (1 = single instance)")
	queryInterval := fs.Duration("query-interval", 250*time.Millisecond, "monitor query period (folds pending records)")
	rollups := fs.Bool("rollups", true, "server rollups, somad's only mode (-rollups=false ablates the series fold; ingest stays decode-free)")
	addr := fs.String("addr", "tcp://127.0.0.1:0", "listen address for the in-process service")
	jsonOut := fs.Bool("json", false, "emit the report as one JSON object on stdout")
	minRate := fs.Float64("min-rate", 0, "fail (exit 1) below this many publishes/sec (0 = report only)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "somabench load: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "somabench load: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *publishers < 1 || *conns < 1 || *conns > *publishers {
		fmt.Fprintln(os.Stderr, "somabench load: need publishers >= conns >= 1")
		return 2
	}
	if *peers < 1 || *peers > 16 {
		fmt.Fprintln(os.Stderr, "somabench load: need 1 <= peers <= 16")
		return 2
	}

	// -peers N boots N instances and joins them into one sharded cluster;
	// the client side then routes each publisher's stream straight to its
	// shard owner and the monitor queries scatter-gather across the fleet.
	svcs := make([]*core.Service, *peers)
	addrs := make([]string, *peers)
	for i := range svcs {
		svcs[i] = core.NewService(core.ServiceConfig{
			DisableRollups: !*rollups,
		})
		defer svcs[i].Close()
		listen := "tcp://127.0.0.1:0"
		if i == 0 {
			listen = *addr
		}
		laddr, err := svcs[i].Listen(listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "somabench load: listen %s: %v\n", listen, err)
			return 1
		}
		addrs[i] = laddr
	}
	laddr := addrs[0]
	if *peers > 1 {
		for i, s := range svcs {
			var others []string
			for j, a := range addrs {
				if j != i {
					others = append(others, a)
				}
			}
			err := s.JoinCluster(core.ClusterConfig{
				SelfID:       fmt.Sprintf("bench-%d", i),
				Peers:        others,
				PingInterval: 100 * time.Millisecond,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "somabench load: join cluster: %v\n", err)
				return 1
			}
		}
		if err := waitBenchCluster(svcs); err != nil {
			fmt.Fprintf(os.Stderr, "somabench load: %v\n", err)
			return 1
		}
	}

	// One single-leaf payload per logical publisher, pre-encoded up front
	// (PublishEncoded) so the run times the publish pipeline, not payload
	// construction — and so the publisher working set is flat byte slices,
	// not 100k pointer-rich trees for the GC to trace every cycle.
	// Publishers are laid out as 16 sensors per node the way per-node
	// monitors report: fan-out spread over two tree levels instead of one
	// flat 100k-child map keeps every child map small enough to stay
	// cache-resident during folds and grafts.
	payloads := make([]loadPayload, *publishers)
	for i := range payloads {
		path := fmt.Sprintf("LOAD/cn%05d/s%02d", i/16, i%16)
		n := conduit.NewNode()
		n.SetFloat(path, float64(i))
		payloads[i] = loadPayload{path: path, enc: n.EncodeBinary()}
	}

	batch := core.BatchConfig{
		MaxBytes:  *batchBytes,
		MaxLeaves: *batchLeaves,
		MaxAge:    *batchAge,
	}
	clients := make([]loadConn, *conns)
	for i := range clients {
		if *peers > 1 {
			cc, err := core.ConnectCluster(laddr, nil, core.ClusterClientConfig{Batch: &batch})
			if err != nil {
				fmt.Fprintf(os.Stderr, "somabench load: connect cluster: %v\n", err)
				return 1
			}
			defer cc.Close()
			clients[i] = clusterConn{cc}
		} else {
			c, err := core.Connect(laddr, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "somabench load: connect: %v\n", err)
				return 1
			}
			defer c.Close()
			c.EnableBatch(batch)
			clients[i] = singleConn{c}
		}
	}

	// Partition the publishers across connections; each producer goroutine
	// round-robins its share so every logical publisher keeps publishing
	// for the whole run.
	var stop atomic.Bool
	var pubErr atomic.Value
	var wg sync.WaitGroup
	per := (*publishers + *conns - 1) / *conns
	start := time.Now()
	for ci := 0; ci < *conns; ci++ {
		lo := ci * per
		hi := lo + per
		if hi > *publishers {
			hi = *publishers
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(c loadConn, own []loadPayload) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := own[i%len(own)]
				if err := c.publishEncoded(core.NSHardware, p.path, p.enc); err != nil {
					pubErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(clients[ci], payloads[lo:hi])
	}

	// The monitor mix: periodic merged-tree queries fold the pending batch
	// records into the snapshot, exactly what a live analysis client does.
	quit := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		tick := time.NewTicker(*queryInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				// Scatter-gathers across the fleet when clustered.
				if _, err := svcs[0].Query(core.NSHardware, "LOAD"); err != nil {
					pubErr.CompareAndSwap(nil, err)
					return
				}
			case <-quit:
				return
			}
		}
	}()

	time.Sleep(*duration)
	// The sustained rate is acknowledged publishes over the measured
	// window, sampled at the stop instant; the drain below (Flush + final
	// counts) exists for exact loss accounting, not for the rate — folding
	// its tail into the denominator would charge queue-drain time against
	// steady-state throughput.
	elapsed := time.Since(start)
	var atStop int64
	for _, c := range clients {
		atStop += c.published()
	}
	stop.Store(true)
	wg.Wait()
	close(quit)
	<-monDone
	for _, c := range clients {
		if err := c.flush(); err != nil {
			pubErr.CompareAndSwap(nil, err)
		}
	}
	if err, _ := pubErr.Load().(error); err != nil {
		fmt.Fprintf(os.Stderr, "somabench load: %v\n", err)
		return 1
	}

	var published int64
	for _, c := range clients {
		published += c.published()
	}
	var serverPubs, bytesIn int64
	for _, svc := range svcs {
		for _, st := range svc.Stats() {
			if st.Namespace == core.NSHardware {
				serverPubs += st.Publishes
				bytesIn += st.BytesIn
			}
		}
	}

	reg := telemetry.Default()
	ack := reg.Histogram("core.client.publish.ack.latency")
	flushes := reg.Counter("core.client.batch.flushes").Value()
	leaves := reg.Counter("core.client.batch.leaves").Value()
	rep := loadReport{
		Publishers:      *publishers,
		Conns:           *conns,
		Peers:           *peers,
		DurationSec:     elapsed.Seconds(),
		Publishes:       published,
		PublishesPerSec: float64(atStop) / elapsed.Seconds(),
		P50Micros:       float64(ack.Quantile(0.50)) / float64(time.Microsecond),
		P95Micros:       float64(ack.Quantile(0.95)) / float64(time.Microsecond),
		P99Micros:       float64(ack.Quantile(0.99)) / float64(time.Microsecond),
		BatchFlushes:    flushes,
		ServerPublishes: serverPubs,
		Lost:            published - serverPubs,
	}
	if published > 0 {
		rep.BytesPerOp = float64(bytesIn) / float64(published)
	}
	if flushes > 0 {
		rep.LeavesPerFlush = float64(leaves) / float64(flushes)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "somabench load: %v\n", err)
			return 1
		}
	} else {
		fleet := ""
		if rep.Peers > 1 {
			fleet = fmt.Sprintf(" into %d clustered instances", rep.Peers)
		}
		fmt.Printf("somabench load: %d publishers over %d conns%s for %.1fs\n",
			rep.Publishers, rep.Conns, fleet, rep.DurationSec)
		fmt.Printf("  publishes        %d (%.0f/sec)\n", rep.Publishes, rep.PublishesPerSec)
		fmt.Printf("  ack latency      p50 %.0fus  p95 %.0fus  p99 %.0fus\n",
			rep.P50Micros, rep.P95Micros, rep.P99Micros)
		fmt.Printf("  wire bytes/op    %.1f\n", rep.BytesPerOp)
		fmt.Printf("  batch flushes    %d (%.0f leaves/flush)\n", rep.BatchFlushes, rep.LeavesPerFlush)
		fmt.Printf("  server records   %d (lost %d)\n", rep.ServerPublishes, rep.Lost)
	}

	if rep.Lost != 0 {
		fmt.Fprintf(os.Stderr, "somabench load: FAIL — %d acknowledged publishes missing server-side\n", rep.Lost)
		return 1
	}
	if *minRate > 0 && rep.PublishesPerSec < *minRate {
		fmt.Fprintf(os.Stderr, "somabench load: FAIL — %.0f publishes/sec below the %.0f/sec floor\n",
			rep.PublishesPerSec, *minRate)
		return 1
	}
	return 0
}

// loadPayload is one logical publisher's pre-encoded sample and its leaf
// path — the shard routing key in clustered runs.
type loadPayload struct {
	path string
	enc  []byte
}

// loadConn abstracts a producer goroutine's connection: a plain Client in
// single-instance runs, a shard-routing ClusterClient under -peers.
type loadConn interface {
	publishEncoded(ns core.Namespace, path string, enc []byte) error
	flush() error
	published() int64
}

type singleConn struct{ c *core.Client }

func (s singleConn) publishEncoded(ns core.Namespace, _ string, enc []byte) error {
	return s.c.PublishEncoded(ns, enc)
}
func (s singleConn) flush() error     { return s.c.Flush() }
func (s singleConn) published() int64 { return s.c.Published() }

type clusterConn struct{ c *core.ClusterClient }

func (s clusterConn) publishEncoded(ns core.Namespace, path string, enc []byte) error {
	return s.c.PublishEncoded(ns, path, enc)
}
func (s clusterConn) flush() error     { return s.c.Flush() }
func (s clusterConn) published() int64 { return s.c.Published() }

// waitBenchCluster blocks until every instance sees the whole fleet alive
// under one ring epoch.
func waitBenchCluster(svcs []*core.Service) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		epochs := map[uint64]bool{}
		ready := true
		for _, s := range svcs {
			e, members := s.ClusterRing()
			if len(members) != len(svcs) {
				ready = false
				break
			}
			epochs[e] = true
		}
		if ready && len(epochs) == 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster of %d never converged", len(svcs))
		}
		time.Sleep(25 * time.Millisecond)
	}
}
