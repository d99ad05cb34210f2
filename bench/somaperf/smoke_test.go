package main

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// smokeFirehose is firehose with a small preload, so a whole three-fleet
// run fits a unit test; rate, publishers, reads and probes are the real
// ones.
func smokeFirehose() *workload {
	w := *workloadByName("firehose")
	w.preload, w.setupReads = 40000, 2
	return &w
}

// startInprocFleet serves a fleet's shape from inside the test process:
// real core.Service values on real TCP ports. Its CPU and RSS rows charge
// the test process itself, so its numbers are not benchmark results.
func startInprocFleet(spec fleetSpec) (*fleet, error) {
	if spec.gateway {
		return nil, errors.New("the in-process fleet has no gateway")
	}
	f := &fleet{t0: time.Now(), pids: []int{os.Getpid()}}
	var svcs []*core.Service
	f.stop = func() {
		for _, s := range svcs {
			s.Close()
		}
		svcs = nil
	}
	for i := 0; i < spec.somads; i++ {
		s := core.NewService(core.ServiceConfig{})
		svcs = append(svcs, s)
		addr, err := s.Listen("tcp://127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.addrs = append(f.addrs, addr)
	}
	if spec.somads > 1 {
		for i, s := range svcs {
			var peers []string
			for j, a := range f.addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			if err := s.JoinCluster(core.ClusterConfig{Peers: peers}); err != nil {
				f.stop()
				return nil, err
			}
		}
		if err := awaitCluster(f.addrs); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func inprocEnv() *env {
	return &env{start: func(w *workload) (*fleet, error) { return startInprocFleet(w.fleet) }}
}

// TestSmokeFirehoseInproc drives a 2 s window against in-process services
// and checks the run's shape: every end-to-end metric by name and unit,
// all positive, and a passing oracle.
func TestSmokeFirehoseInproc(t *testing.T) {
	res, err := inprocEnv().runEndToEnd(smokeFirehose(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 200000 {
		t.Errorf("correct %v, %d failed of %d attempted; want a clean run of over 200000 operations", res.Correct, res.Failed, res.Attempted)
	}
	want := map[string]string{
		"setup_s": "s", "svc_cpu_us_per_pub": "us", "ack_p50_ms": "ms", "fresh_p50_ms": "ms",
		"read_p50_ms": "ms", "rss_mean_mb": "MB",
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit || !(m.Value > 0) {
			t.Errorf("metric %s: got %+v (present %v), want a positive value in %s", name, m, ok, unit)
		}
	}
}

// lossyProxy stands in front of a real in-process service and forwards
// every RPC the firehose session uses — except that it acknowledges one
// synchronous publish without delivering it. The oracle must notice.
func lossyProxy(t *testing.T, upstream string, dropNth int64) (addr string, dropped *atomic.Bool) {
	t.Helper()
	ep, err := mercury.Lookup(upstream)
	if err != nil {
		t.Fatal(err)
	}
	eng := mercury.NewEngine()
	t.Cleanup(func() { eng.Close(); ep.Close() })
	dropped = &atomic.Bool{}
	var publishes atomic.Int64
	for _, rpc := range []string{
		core.RPCPublish, core.RPCPublishBatch, core.RPCQuery, core.RPCQueryDelta,
		core.RPCStats, core.RPCSeries, core.RPCTelemetry, core.RPCAlertList, core.RPCHealth,
	} {
		rpc := rpc
		eng.Register(rpc, func(ctx context.Context, in []byte) ([]byte, error) {
			if rpc == core.RPCPublish && publishes.Add(1) == dropNth {
				dropped.Store(true)
				return conduit.NewNode().EncodeBinary(), nil // acked, never stored
			}
			return ep.Call(ctx, rpc, in)
		})
	}
	addr, err = eng.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, dropped
}

// TestOracleCatchesOneLostPublish points the harness at a service that
// drops exactly one acknowledged publish: the run must still print its
// metrics, and must count failed operations and report itself incorrect.
func TestOracleCatchesOneLostPublish(t *testing.T) {
	var dropped *atomic.Bool
	e := &env{start: func(w *workload) (*fleet, error) {
		f, err := startInprocFleet(w.fleet)
		if err != nil {
			return nil, err
		}
		// The 30th synchronous publish is a marker early in the window.
		f.addrs[0], dropped = lossyProxy(t, f.addrs[0], 30)
		return f, nil
	}}
	tly := &tally{}
	win, _, err := e.measureFleet(smokeFirehose(), 3, windowPhase(1, 2), tly)
	if err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("the proxy never dropped a publish; the test proves nothing")
	}
	res := endToEndResult(smokeFirehose(), []float64{1}, win, tly)
	if res.Correct || res.Failed == 0 {
		t.Errorf("one acknowledged publish was lost and the run reports correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(endToEndMetrics) {
		t.Errorf("a failed check suppressed metrics: %d printed", len(res.Metrics))
	}
	tly.mu.Lock()
	defer tly.mu.Unlock()
	found := false
	for _, msg := range tly.errs {
		if strings.Contains(msg, "zero loss") {
			found = true
		}
	}
	if !found {
		t.Errorf("the zero-loss check did not fire; failures were: %v", tly.errs)
	}
}
