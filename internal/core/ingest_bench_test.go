package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Ingest benchmarks: the service-side publish hot path the Scaling A/B
// experiments stress. BenchmarkPublishIngest is the headline number the
// sharded/batched pipeline is measured by (scripts/benchdiff.sh compares it
// against scripts/bench_baseline.json): 8 concurrent publishers pushing
// timestamped hardware-style trees into one namespace, with one merged-tree
// query per publisher every 32 publishes (the paper's monitor-plus-analysis
// mix).

// benchWindow bounds the per-host timestamp fan-out, modeling the paper's
// phase-reset deployments where ResetNamespace keeps the merged tree from
// growing without bound; past the window, publishes overwrite old samples
// so the benchmark measures steady-state ingest, not tree growth.
const benchWindow = 512

// benchTree builds an 8-leaf publish payload under a windowed timestamp
// path, the shape a hardware monitor publishes every interval. The sample
// node is fetched once and the metrics set relative to it, the way the
// collectors build their trees.
func benchTree(host string, seq int64) *conduit.Node {
	n := conduit.NewNode()
	sample := n.Fetch("PROC/" + host + "/" + strconv.FormatInt(seq%benchWindow, 10) + ".0")
	sample.SetFloat("CPU Util", float64(seq%100))
	sample.SetInt("Uptime", seq)
	sample.SetInt("MemFree", 1<<30)
	sample.SetInt("MemTotal", 1<<31)
	sample.SetFloat("Load1", 0.5)
	sample.SetFloat("Load5", 0.4)
	sample.SetInt("Procs", 100)
	sample.SetString("State", "ok")
	return n
}

func BenchmarkPublishIngest(b *testing.B) {
	const publishers = 8
	svc := NewService(ServiceConfig{RanksPerNamespace: publishers})
	defer svc.Close()
	lp := LocalPublisher{Service: svc}

	var seq atomic.Int64
	var worker atomic.Int64
	b.ReportAllocs()
	b.SetParallelism((publishers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		host := fmt.Sprintf("cn%04d", worker.Add(1))
		i := 0
		for pb.Next() {
			if err := lp.Publish(NSHardware, benchTree(host, seq.Add(1))); err != nil {
				b.Fatal(err)
			}
			i++
			if i%32 == 0 {
				if _, err := svc.Query(NSHardware, "PROC/"+host); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPublishIngestTraced is BenchmarkPublishIngest with every publish
// wrapped in a root span, so the stripe append records a child span into the
// telemetry ring. make telemetry-overhead (scripts/benchdiff.sh --telemetry)
// compares it against the untraced benchmark and fails when tracing costs
// more than 5% — the self-measured analog of the paper's overhead tables.
func BenchmarkPublishIngestTraced(b *testing.B) {
	const publishers = 8
	svc := NewService(ServiceConfig{RanksPerNamespace: publishers})
	defer svc.Close()

	var seq atomic.Int64
	var worker atomic.Int64
	b.ReportAllocs()
	b.SetParallelism((publishers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		host := fmt.Sprintf("cn%04d", worker.Add(1))
		i := 0
		for pb.Next() {
			ctx, sp := telemetry.StartSpan(context.Background(), "bench.publish")
			err := svc.PublishCtx(ctx, NSHardware, benchTree(host, seq.Add(1)), 0)
			sp.End()
			if err != nil {
				b.Fatal(err)
			}
			i++
			if i%32 == 0 {
				if _, err := svc.Query(NSHardware, "PROC/"+host); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPublishIngestRPC measures the same mix through the full client
// stub + inproc RPC framing (encode, frame, decode), so codec and transport
// pooling show up here.
func BenchmarkPublishIngestRPC(b *testing.B) {
	const publishers = 8
	svc := NewService(ServiceConfig{RanksPerNamespace: publishers})
	addr, err := svc.Listen("inproc://bench-ingest-rpc")
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()

	clients := make([]*Client, publishers)
	for i := range clients {
		c, err := Connect(addr, nil)
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}

	var seq atomic.Int64
	var worker atomic.Int64
	b.ReportAllocs()
	b.SetParallelism((publishers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1)-1) % publishers
		c := clients[w]
		host := fmt.Sprintf("cn%04d", w)
		i := 0
		for pb.Next() {
			if err := c.Publish(NSHardware, benchTree(host, seq.Add(1))); err != nil {
				b.Fatal(err)
			}
			i++
			if i%32 == 0 {
				if _, err := c.Query(NSHardware, "PROC/"+host); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSelectSnapshot measures repeated pattern selects against a static
// merged tree — the copy-on-read snapshot should make these allocation-light
// after the first rebuild.
func BenchmarkSelectSnapshot(b *testing.B) {
	svc := NewService(ServiceConfig{})
	defer svc.Close()
	lp := LocalPublisher{Service: svc}
	var wg sync.WaitGroup
	for h := 0; h < 16; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for s := 0; s < 16; s++ {
				if err := lp.Publish(NSHardware, benchTree(fmt.Sprintf("cn%04d", h), int64(s))); err != nil {
					b.Error(err)
				}
			}
		}(h)
	}
	wg.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, _, err := svc.Select(NSHardware, "PROC/*/*/CPU Util")
		if err != nil {
			b.Fatal(err)
		}
		if len(paths) != 256 {
			b.Fatalf("matches = %d", len(paths))
		}
	}
}

// BenchmarkPublishBatch measures the coalesced publish path end to end: a
// client with EnableBatch pushing single-leaf trees through the inproc RPC
// into the service's batch ingest. One op is one logical publish, so
// 1e9/ns_per_op is the sustained publishes/sec a single connection carries —
// the number scripts/benchdiff.sh gates against min_batch_publishes_per_sec.
func BenchmarkPublishBatch(b *testing.B) {
	// The shipped configuration: rollups on.
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("inproc://bench-publish-batch")
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	c, err := Connect(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{})

	// A window of pre-built single-leaf payloads (the per-interval sample a
	// fleet of small publishers would send), reused so the benchmark times
	// the publish pipeline, not payload construction.
	nodes := make([]*conduit.Node, benchWindow)
	for i := range nodes {
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("LOAD/cn%04d/load", i), float64(i))
		nodes[i] = n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Publish(NSHardware, nodes[i%benchWindow]); err != nil {
			b.Fatal(err)
		}
		// Fold pending records periodically, as a live deployment's monitor
		// queries would: steady-state throughput includes merge cost and
		// keeps the pending list (and so GC scan work) bounded.
		if i%4096 == 4095 {
			if _, err := svc.Query(NSHardware, "LOAD/cn0000"); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	if got := c.Published(); got != int64(b.N) {
		b.Fatalf("Published() = %d, want %d", got, b.N)
	}
}
