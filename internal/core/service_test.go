package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

func newTestService(t *testing.T, cfg ServiceConfig) (*Service, string) {
	t.Helper()
	svc := NewService(cfg)
	addr, err := svc.Listen(fmt.Sprintf("inproc://svc-%s", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, addr
}

// pendingRecords returns the publishes waiting in in's stripes in arrival
// (seq) order: the tests' probe for what the service stored, byte for byte and
// in what order. Read it before anything folds (a query, a select, stats) —
// the fold drains the stripes and the records are gone.
func pendingRecords(in *instance) []record {
	var recs []record
	for _, st := range in.stripes {
		st.mu.Lock()
		recs = append(recs, st.pending...)
		st.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	return recs
}

func TestNamespaceValidity(t *testing.T) {
	for _, ns := range Namespaces {
		if !ns.Valid() {
			t.Errorf("%s should be valid", ns)
		}
	}
	if Namespace("bogus").Valid() {
		t.Error("bogus namespace valid")
	}
	err := &ErrUnknownNamespace{NS: "bogus"}
	if err.Error() == "" {
		t.Error("empty error text")
	}
}

func TestServiceDirectPublishQuery(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{})
	n := conduit.NewNode()
	n.SetString("RP/task.000000/1.0000000", "launch_start")
	if err := svc.Publish(NSWorkflow, n, 100); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Query(NSWorkflow, "RP/task.000000")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.StringVal("1.0000000"); v != "launch_start" {
		t.Fatalf("query = %s", got.Format())
	}
	// Unknown path gives an empty tree, not an error.
	empty, err := svc.Query(NSWorkflow, "no/such/path")
	if err != nil || empty.NumLeaves() != 0 {
		t.Fatalf("missing path: %v, %d leaves", err, empty.NumLeaves())
	}
	// Unknown namespace errors.
	if err := svc.Publish("bogus", n, 0); err == nil {
		t.Fatal("bogus namespace accepted")
	}
	var unk *ErrUnknownNamespace
	if _, err := svc.Query("bogus", ""); !errors.As(err, &unk) {
		t.Fatalf("err = %v", err)
	}
}

func TestServiceMergesAcrossPublishes(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{})
	for i := 0; i < 5; i++ {
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("PROC/cn0001/%d.0/CPU Util", i), float64(i*10))
		svc.Publish(NSHardware, n, 0)
	}
	got, _ := svc.Query(NSHardware, "PROC/cn0001")
	if got.NumChildren() != 5 {
		t.Fatalf("merged timestamps = %d", got.NumChildren())
	}
}

func TestNamespaceIsolation(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{})
	n := conduit.NewNode()
	n.SetInt("x", 1)
	svc.Publish(NSWorkflow, n, 0)
	got, _ := svc.Query(NSHardware, "")
	if got.NumLeaves() != 0 {
		t.Fatal("data leaked across namespaces")
	}
	stats := svc.Stats()
	if len(stats) != 4 {
		t.Fatalf("stats rows = %d", len(stats))
	}
	for _, st := range stats {
		want := int64(0)
		if st.Namespace == NSWorkflow {
			want = 1
		}
		if st.Publishes != want {
			t.Errorf("%s publishes = %d want %d", st.Namespace, st.Publishes, want)
		}
	}
}

func TestSharedInstanceMode(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{Shared: true, RanksPerNamespace: 2})
	n := conduit.NewNode()
	n.SetInt("wf", 1)
	svc.Publish(NSWorkflow, n, 0)
	// In shared mode, all namespaces see the same storage.
	got, _ := svc.Query(NSHardware, "")
	if !got.Has("wf") {
		t.Fatal("shared instance should expose data through any namespace")
	}
	stats := svc.Stats()
	if len(stats) != 1 || stats[0].Ranks != 8 {
		t.Fatalf("shared stats = %+v", stats)
	}
}

// The comment on pendingKeepCap prices the cap in bytes from this size.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(record{}) = %d, want 32 (seq + enc): restate pendingKeepCap's comment", got)
	}
}

// A service that has ingested nothing holds next to nothing: no store is
// sized up front for publishes that may never come.
func TestIdleServiceFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	svc := NewService(ServiceConfig{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer svc.Close()
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("an idle service holds %d B of heap, want under 1 MiB", grew)
	}
}

func TestServiceStoppedRejects(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{})
	svc.Close()
	if err := svc.Publish(NSWorkflow, conduit.NewNode(), 0); !errors.Is(err, ErrServiceStopped) {
		t.Fatalf("publish after close = %v", err)
	}
	if _, err := svc.Query(NSWorkflow, ""); !errors.Is(err, ErrServiceStopped) {
		t.Fatalf("query after close = %v", err)
	}
}

func TestClientPublishQueryInproc(t *testing.T) {
	_, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := conduit.NewNode()
	n.SetString("RP/task.000001/2.5", "exec_start")
	if err := c.Publish(NSWorkflow, n); err != nil {
		t.Fatal(err)
	}
	if c.Published() != 1 {
		t.Fatalf("published = %d", c.Published())
	}
	got, err := c.Query(NSWorkflow, "RP/task.000001")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.StringVal("2.5"); v != "exec_start" {
		t.Fatalf("round trip = %s", got.Format())
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats[NSWorkflow].Publishes != 1 || stats[NSWorkflow].Leaves != 1 {
		t.Fatalf("stats = %+v", stats[NSWorkflow])
	}
	if stats[NSWorkflow].BytesIn == 0 {
		t.Fatal("RPC publish should account wire bytes")
	}
}

func TestClientOverTCP(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := conduit.NewNode()
	n.SetFloat("PROC/cnX/1.0/CPU Util", 55.5)
	if err := c.Publish(NSHardware, n); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(NSHardware, "PROC/cnX/1.0")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Float("CPU Util"); v != 55.5 {
		t.Fatalf("tcp round trip = %v", v)
	}
}

func TestClientUnknownNamespaceSurfacesError(t *testing.T) {
	_, addr := newTestService(t, ServiceConfig{})
	c, _ := Connect(addr, nil)
	defer c.Close()
	if err := c.Publish("bogus", conduit.NewNode()); err == nil {
		t.Fatal("bogus namespace accepted over RPC")
	}
}

func TestClientShutdownRPC(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, _ := Connect(addr, nil)
	defer c.Close()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !svc.Stopped() {
		t.Fatal("service not stopped")
	}
	if err := c.Publish(NSWorkflow, conduit.NewNode()); err == nil {
		t.Fatal("publish after shutdown accepted")
	}
}

func TestClientBatchPublishConcurrent(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableBatch(BatchConfig{})
	c.EnableBatch(BatchConfig{}) // idempotent
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := conduit.NewNode()
			n.SetInt(fmt.Sprintf("k%d", i), int64(i))
			if err := c.Publish(NSApplication, n); err != nil {
				t.Errorf("batched publish %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	c.Close() // final delivery attempt for the pending batch
	got, err := svc.Query(NSApplication, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLeaves() != 50 {
		t.Fatalf("leaves after Close = %d want 50", got.NumLeaves())
	}
}

func TestClientFlush(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Flush(); err != nil { // nothing to drain unbatched
		t.Fatal(err)
	}
	c.EnableBatch(BatchConfig{MaxAge: time.Hour}) // only Flush ships
	for i := 0; i < 32; i++ {
		n := conduit.NewNode()
		n.SetInt(fmt.Sprintf("k%d", i), int64(i))
		if err := c.Publish(NSApplication, n); err != nil {
			t.Fatalf("batched publish %d: %v", i, err)
		}
	}
	// Flush must make every earlier publish visible without closing.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Query(NSApplication, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLeaves() != 32 {
		t.Fatalf("leaves after Flush = %d want 32", got.NumLeaves())
	}
	// The client keeps working after a flush.
	if err := c.Publish(NSApplication, conduit.NewNode()); err != nil {
		t.Fatal(err)
	}
}

func TestConnectFailures(t *testing.T) {
	if _, err := Connect("inproc://nobody", nil); err == nil {
		t.Fatal("connect to missing service succeeded")
	}
	if _, err := Connect("junk", mercury.NewEngine()); err == nil {
		t.Fatal("junk address accepted")
	}
}

func TestConcurrentPublishersAndQueriers(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Connect(addr, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				n := conduit.NewNode()
				n.SetInt(fmt.Sprintf("w%d/i%d", w, i), int64(i))
				if err := c.Publish(NSWorkflow, n); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Query(NSWorkflow, fmt.Sprintf("w%d", w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, _ := svc.Query(NSWorkflow, "")
	if got.NumLeaves() != 160 {
		t.Fatalf("leaves = %d want 160", got.NumLeaves())
	}
}

func BenchmarkPublishModes(b *testing.B) {
	mk := func() *conduit.Node {
		n := conduit.NewNode()
		n.SetFloat("PROC/cn0001/123.456/CPU Util", 42)
		n.SetIntArray("PROC/cn0001/123.456/stat/cpu", []int64{1, 2, 3, 4, 5, 6, 7})
		return n
	}
	b.Run("sync", func(b *testing.B) {
		svc := NewService(ServiceConfig{})
		addr, _ := svc.Listen("inproc://bench-sync")
		defer svc.Close()
		c, _ := Connect(addr, nil)
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Publish(NSHardware, mk()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		svc := NewService(ServiceConfig{})
		addr, _ := svc.Listen("inproc://bench-batch")
		defer svc.Close()
		c, _ := Connect(addr, nil)
		c.EnableBatch(BatchConfig{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Publish(NSHardware, mk()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		c.Close()
	})
	b.Run("local", func(b *testing.B) {
		svc := NewService(ServiceConfig{})
		defer svc.Close()
		lp := LocalPublisher{Service: svc}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := lp.Publish(NSHardware, mk()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkInstanceSplit(b *testing.B) {
	run := func(b *testing.B, shared bool) {
		svc := NewService(ServiceConfig{Shared: shared})
		defer svc.Close()
		lp := LocalPublisher{Service: svc}
		nss := []Namespace{NSWorkflow, NSHardware, NSPerformance, NSApplication}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				n := conduit.NewNode()
				n.SetInt("k", int64(i))
				if err := lp.Publish(nss[i%4], n); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	b.Run("per-namespace", func(b *testing.B) { run(b, false) })
	b.Run("shared", func(b *testing.B) { run(b, true) })
}

func TestResetNamespace(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := conduit.NewNode()
	n.SetInt("keep/me", 1)
	if err := c.Publish(NSWorkflow, n); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(NSHardware, n); err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(NSWorkflow); err != nil {
		t.Fatal(err)
	}
	if pend := pendingRecords(svc.instances[NSWorkflow]); len(pend) != 0 {
		t.Fatal("pending publishes not cleared")
	}
	got, _ := svc.Query(NSWorkflow, "")
	if got.NumLeaves() != 0 {
		t.Fatal("workflow namespace not cleared")
	}
	// Other namespaces untouched; counters survive.
	hw, _ := svc.Query(NSHardware, "")
	if hw.NumLeaves() != 1 {
		t.Fatal("reset leaked into other namespace")
	}
	for _, st := range svc.Stats() {
		if st.Namespace == NSWorkflow && st.Publishes != 1 {
			t.Fatalf("publish counter reset: %+v", st)
		}
	}
	// Publishing after reset works.
	if err := c.Publish(NSWorkflow, n); err != nil {
		t.Fatal(err)
	}
	if err := c.Reset("bogus"); err == nil {
		t.Fatal("bogus namespace reset accepted")
	}
	svc.Close()
	if err := svc.ResetNamespace(NSWorkflow); err == nil {
		t.Fatal("reset after close accepted")
	}
}

func TestSelectRPC(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := conduit.NewNode()
	n.SetFloat("PROC/cn0001/10.0/CPU Util", 25)
	n.SetFloat("PROC/cn0002/10.0/CPU Util", 75)
	n.SetString("PROC/cn0001/10.0/tag", "x")
	if err := c.Publish(NSHardware, n); err != nil {
		t.Fatal(err)
	}
	matches, err := c.Select(NSHardware, "PROC/*/*/CPU Util")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	sum := 0.0
	for _, m := range matches {
		if !m.HasValue {
			t.Fatalf("numeric match missing value: %+v", m)
		}
		sum += m.Value
	}
	if sum != 100 {
		t.Fatalf("values sum = %v", sum)
	}
	// Non-numeric matches come back without values.
	matches, err = c.Select(NSHardware, "PROC/cn0001/10.0/tag")
	if err != nil || len(matches) != 1 || matches[0].HasValue {
		t.Fatalf("string match = %v, %v", matches, err)
	}
	// No matches → empty, no error.
	matches, err = c.Select(NSHardware, "nope/**")
	if err != nil || len(matches) != 0 {
		t.Fatalf("no-match = %v, %v", matches, err)
	}
	if _, err := c.Select("bogus", "x"); err == nil {
		t.Fatal("bogus namespace accepted")
	}
	// Direct service API agrees.
	paths, values, err := svc.Select(NSHardware, "PROC/*/*/CPU Util")
	if err != nil || len(paths) != 2 || len(values) != 2 {
		t.Fatalf("service select = %v, %v, %v", paths, values, err)
	}
	svc.Close()
	if _, _, err := svc.Select(NSHardware, "x"); err == nil {
		t.Fatal("select after close accepted")
	}
}

// Regression: Close immediately after EnableBatch must not deadlock even
// when the flusher goroutine has not started yet.
func TestBatchCloseImmediatelyNoDeadlock(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	_ = svc
	for i := 0; i < 200; i++ {
		c, err := Connect(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableBatch(BatchConfig{})
		done := make(chan struct{})
		go func() {
			c.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close deadlocked")
		}
	}
}

// TestConcurrentPublishQueryReset interleaves publishers, queriers, and
// periodic namespace resets on ONE namespace — the snapshot-generation logic
// has to stay coherent while publishes race a reset (run under -race). The
// invariants checked: no error/deadlock/panic during the storm, and a fresh
// publish after quiescing is immediately visible through Query.
func TestConcurrentPublishQueryReset(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{RanksPerNamespace: 4})

	const (
		publishers = 4
		rounds     = 200
	)
	var pubWG, resetWG sync.WaitGroup
	stop := make(chan struct{})

	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			host := fmt.Sprintf("cn%04d", p)
			for i := 0; i < rounds; i++ {
				n := conduit.NewNode()
				n.SetFloat(fmt.Sprintf("PROC/%s/%d.0/CPU Util", host, i), float64(i))
				if err := svc.Publish(NSHardware, n, 64); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					sub, err := svc.Query(NSHardware, "PROC/"+host)
					if err != nil {
						t.Error(err)
						return
					}
					// The subtree is a shared immutable snapshot; walking it
					// must be safe while publishes and resets race on.
					sub.NumLeaves()
				}
			}
		}(p)
	}

	resetWG.Add(1)
	go func() {
		defer resetWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := svc.ResetNamespace(NSHardware); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	pubWG.Wait()
	close(stop)
	resetWG.Wait()

	// Post-quiesce: a fresh publish must be immediately visible (the snapshot
	// generation catches up past all the resets).
	final := conduit.NewNode()
	final.SetFloat("PROC/final/1.0/CPU Util", 42)
	if err := svc.Publish(NSHardware, final, 64); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Query(NSHardware, "PROC/final/1.0")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Float("CPU Util"); !ok || v != 42 {
		t.Fatalf("post-reset publish not visible: %s", got.Format())
	}
	for _, st := range svc.Stats() {
		if st.Namespace == NSHardware && st.Publishes == 0 {
			t.Fatal("publish counters lost")
		}
	}
}
