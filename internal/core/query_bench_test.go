package core

import (
	"fmt"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// Query-path benchmarks: the read side the high fan-in deployments stress
// (every monitor UI tick and analysis probe is a query). BenchmarkQueryDelta,
// the repeat poll of an unchanged namespace, is the headline number —
// scripts/benchdiff.sh gates it at 0 allocs/op and at a >=5x speedup over
// BenchmarkQueryEncodeNoCache, a walk and encode of the whole answer,
// measured live in the same process so the ratio is host-independent.

// benchQueryService builds a service with a realistically sized hardware
// tree: hosts × 16 samples × 8 metrics.
func benchQueryService(b *testing.B, hosts int) *Service {
	b.Helper()
	svc := NewService(ServiceConfig{})
	lp := LocalPublisher{Service: svc}
	for h := 0; h < hosts; h++ {
		for s := 0; s < 16; s++ {
			if err := lp.Publish(NSHardware, benchTree(fmt.Sprintf("cn%04d", h), int64(s))); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Prime the snapshot.
	if _, err := svc.QueryEncoded(NSHardware, "PROC"); err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkQueryEncodeNoCache is what a poll without a matching stamp costs
// at the least: walk the snapshot to the subtree and encode it per request.
// benchdiff.sh divides this by BenchmarkQueryDelta for the >=5x speedup gate.
func BenchmarkQueryEncodeNoCache(b *testing.B) {
	svc := benchQueryService(b, 16)
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := svc.Query(NSHardware, "PROC")
		if err != nil {
			b.Fatal(err)
		}
		resp := conduit.NewNode()
		resp.Attach("data", sub)
		if frame := resp.EncodeBinary(); len(frame) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// BenchmarkQueryDelta measures the steady-state delta poll: the client's
// stamp matches, so the service answers with the tiny "unchanged" frame its
// snapshot was built with.
func BenchmarkQueryDelta(b *testing.B) {
	svc := benchQueryService(b, 16)
	defer svc.Close()
	full, err := svc.QueryEncoded(NSHardware, "PROC")
	if err != nil {
		b.Fatal(err)
	}
	env, err := conduit.DecodeBinary(full)
	if err != nil {
		b.Fatal(err)
	}
	epoch, _ := env.Int("epoch")
	gen, _ := env.Int("gen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := svc.QueryDeltaEncoded(NSHardware, "PROC", uint64(epoch), uint64(gen))
		if err != nil {
			b.Fatal(err)
		}
		if len(frame) >= len(full) {
			b.Fatal("delta frame not smaller than full frame")
		}
	}
}

// BenchmarkSnapshotRebuild measures the cold path no stamp can skip: a
// large pending batch of raw records — what every publish, wire or
// in-process, leaves in a stripe — drained from every dirty stripe, sorted
// back into arrival order and folded into the snapshot.
func BenchmarkSnapshotRebuild(b *testing.B) {
	const hosts = 64
	svc := NewService(ServiceConfig{RanksPerNamespace: 8})
	defer svc.Close()
	in := svc.instances[NSHardware]
	frames := make([][]byte, hosts*8)
	for i := range frames {
		frames[i] = benchTree(fmt.Sprintf("cn%04d", i%hosts), int64(i)).EncodeBinary()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, enc := range frames {
			in.append(float64(i), []pub{{ns: NSHardware, in: in, enc: enc}}, 0)
		}
		if sn := in.currentSnapshot(); sn.tree.NumLeaves() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkQueryDeltaPartial models the repository benchmark's firehose read
// — Client.Query(hardware, "LOAD") over 1 250 hosts × 16 leaves, with an
// eighth of the hosts rewritten between reads — from the service's answer
// through the client's decode: "patch" is a stamped poll answered with the
// rewritten hosts and grafted onto the memo, "full" the same read answered
// with the whole subtree. The rewrite and the snapshot rebuild are outside
// the timer.
func BenchmarkQueryDeltaPartial(b *testing.B) {
	const hosts, leaves = 1250, 16
	const rewrite = hosts / 8
	svc := NewService(ServiceConfig{})
	defer svc.Close()
	in := svc.instances[NSHardware]
	// Two versions of every host's frame; a rewrite alternates them.
	var frames [2][hosts][]byte
	for v := range frames {
		for h := range frames[v] {
			n := conduit.NewNode()
			for s := 0; s < leaves; s++ {
				n.SetFloat(fmt.Sprintf("LOAD/cn%05d/s%02d", h, s), float64(v+s))
			}
			frames[v][h] = n.EncodeBinary()
		}
	}
	next := 0
	publishHosts := func(n int) {
		for ; n > 0; n-- {
			in.append(0, []pub{{ns: NSHardware, in: in, enc: frames[next/hosts%2][next%hosts]}}, 0)
			next++
		}
		in.currentSnapshot()
	}
	publishHosts(hosts)
	read := func(b *testing.B, answer func() ([]byte, error), apply func(resp *conduit.Node) *conduit.Node) {
		var frameBytes int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			publishHosts(rewrite)
			b.StartTimer()
			frame, err := answer()
			if err != nil {
				b.Fatal(err)
			}
			resp, err := conduit.DecodeBinary(frame)
			if err != nil {
				b.Fatal(err)
			}
			if tree := apply(resp); tree.NumChildren() != hosts {
				b.Fatalf("read holds %d hosts, want %d", tree.NumChildren(), hosts)
			}
			frameBytes += len(frame)
		}
		b.ReportMetric(float64(frameBytes)/float64(b.N), "frame_B/op")
	}
	b.Run("patch", func(b *testing.B) {
		full, err := svc.queryDelta(NSHardware, "LOAD", 0, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		env := mustDecode(b, full)
		epoch, _ := env.Int("epoch")
		gen, _ := env.Int("gen")
		data, _ := env.Get("data")
		memo := &deltaMemo{epoch: epoch, gen: gen, tree: data}
		read(b, func() ([]byte, error) {
			return svc.queryDelta(NSHardware, "LOAD", uint64(memo.epoch), uint64(memo.gen), true)
		}, func(resp *conduit.Node) *conduit.Node {
			next, kind, ok := applyDelta(memo, resp)
			if !ok || kind != deltaPartial {
				b.Fatal("the read was not answered with a patch that applies")
			}
			memo = next
			return next.tree
		})
	})
	b.Run("full", func(b *testing.B) {
		read(b, func() ([]byte, error) {
			return svc.QueryEncoded(NSHardware, "LOAD")
		}, func(resp *conduit.Node) *conduit.Node {
			data, _ := resp.Get("data")
			return data
		})
	})
}
