package core

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// Streaming benchmarks: the rollup query path somatop leans on and the
// publish-time fan-out cost subscribers add. Both are guarded by
// scripts/benchdiff.sh against the references in scripts/bench_baseline.json.

// benchSeriesService returns a service whose hardware namespace holds the
// ingest benchmark's series population (8 hosts × 7 numeric metrics).
func benchSeriesService(b *testing.B) *Service {
	b.Helper()
	svc := NewService(ServiceConfig{})
	lp := LocalPublisher{Service: svc}
	for h := 0; h < 8; h++ {
		host := fmt.Sprintf("cn%04d", h)
		for s := int64(0); s < 64; s++ {
			if err := lp.Publish(NSHardware, benchTree(host, s)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return svc
}

// BenchmarkSeriesQuery measures one 1s-level rollup query against a
// populated store — the per-row cost of somatop's sparkline panel.
func BenchmarkSeriesQuery(b *testing.B) {
	svc := benchSeriesService(b)
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se, err := svc.QuerySeries(NSHardware, "PROC/cn0003/CPU Util", Level1s, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(se.Bucket) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkSubscribeFanout measures the publish path with one live
// subscriber — stripe append + rollup ingest + the update-log append — while
// a goroutine reads the subscriber's cursor as soma.updates.recv does,
// without decoding. The delta against BenchmarkPublishIngest is the price of
// a watcher.
func BenchmarkSubscribeFanout(b *testing.B) {
	svc := NewService(ServiceConfig{})
	defer svc.Close()
	lp := LocalPublisher{Service: svc}

	id, c, err := svc.updates.open(prefixMask("ns/hardware/"), false, time.Time{})
	if err != nil {
		b.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		var batch [64]logEntry
		for ctx.Err() == nil {
			svc.updates.read(ctx, c, len(batch), time.Second, batch[:0])
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lp.Publish(NSHardware, benchTree("cn0001", int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop()
	svc.updates.remove(id, false)
	<-drained
}
