package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// The update log below its RPC rows: the byte budget, frame release, the
// publish path's allocation budget and the subscription prefix compiler.

// openLocal opens a cursor on svc's log for prefix, released with the test.
func openLocal(t *testing.T, svc *Service, prefix string) (int64, *cursor) {
	t.Helper()
	id, c, err := svc.updates.open(prefixMask(prefix), false, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.updates.remove(id, false) })
	return id, c
}

// drain reads c until the log holds nothing more for it.
func drain(svc *Service, c *cursor) (ents []logEntry, dropped int64) {
	for {
		got, d, _ := svc.updates.read(context.Background(), c, 64, time.Millisecond, nil)
		ents, dropped = append(ents, got...), d
		if len(got) == 0 {
			return ents, dropped
		}
	}
}

// logBytes is what svc's log holds against its budget.
func logBytes(svc *Service) int {
	svc.updates.mu.Lock()
	defer svc.updates.mu.Unlock()
	return svc.updates.bytes
}

// referencedFrames counts the log slots that still reference a frame.
func referencedFrames(svc *Service) int {
	svc.updates.mu.Lock()
	defer svc.updates.mu.Unlock()
	n := 0
	for _, e := range svc.updates.ring {
		if e.data != nil {
			n++
		}
	}
	return n
}

// waitParked waits until n receives are parked on svc's log.
func waitParked(t *testing.T, svc *Service, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		svc.updates.mu.Lock()
		parked := 0
		for _, c := range svc.updates.cursors {
			parked += c.inRecv
		}
		waiting := svc.updates.wake != nil
		svc.updates.mu.Unlock()
		if parked >= n && waiting {
			return
		}
	}
	t.Fatalf("%d receives never parked", n)
}

// paddedTree is a publish of roughly pad bytes carrying i.
func paddedTree(i, pad int) *conduit.Node {
	n := seqTree(i)
	n.SetString("SEQ/cn01/pad", strings.Repeat("x", pad))
	return n
}

func TestUpdateLogBoundedInBytes(t *testing.T) {
	// A hardware cursor that never reads beside a workflow cursor that reads
	// after every publish, with three budgets' worth of bytes published: the
	// log stays within its budget, the reader loses nothing, and the
	// non-reader's received + dropped is exactly what was published for it.
	if 2*unsafe.Sizeof(logEntry{}) != entryBytes {
		t.Fatalf("unsafe.Sizeof(logEntry{}) = %d, entryBytes = %d, want twice the slot", unsafe.Sizeof(logEntry{}), entryBytes)
	}
	svc := NewService(ServiceConfig{DisableRollups: true})
	defer svc.Close()
	const budget = 8 << 10
	svc.updates.budget = budget
	gauge := telLogBytes.Value()
	hwID, hw := openLocal(t, svc, "ns/hardware/")
	wfID, wf := openLocal(t, svc, "ns/workflow/")

	published, hwSent, wfSent, wfGot := 0, 0, 0, 0
	for i := 0; published < 3*budget; i++ {
		ns := NSHardware
		if i%2 == 1 {
			ns = NSWorkflow
		}
		tree := paddedTree(i, 200)
		if err := svc.Publish(ns, tree, 0); err != nil {
			t.Fatal(err)
		}
		published += entryBytes + len(tree.EncodeBinary())
		if ns == NSHardware {
			hwSent++
		} else {
			wfSent++
			ents, _ := drain(svc, wf)
			wfGot += len(ents)
		}
		if n := logBytes(svc); n > budget {
			t.Fatalf("after %d bytes published the log holds %d, over its %d budget", published, n, budget)
		}
		if n := telLogBytes.Value() - gauge; n != int64(logBytes(svc)) {
			t.Fatalf("core.subscribe.log_bytes moved by %d, the log holds %d", n, logBytes(svc))
		}
	}
	hwGot, hwDropped := drain(svc, hw)
	if int64(len(hwGot))+hwDropped != int64(hwSent) || hwDropped == 0 {
		t.Fatalf("hardware cursor received %d + dropped %d, published %d (and something must drop)", len(hwGot), hwDropped, hwSent)
	}
	if _, wfDropped := drain(svc, wf); wfDropped != 0 || wfGot != wfSent {
		t.Fatalf("reading workflow cursor got %d with %d dropped, want all %d and none dropped", wfGot, wfDropped, wfSent)
	}
	svc.updates.remove(hwID, false)
	svc.updates.remove(wfID, false)
	if n := telLogBytes.Value() - gauge; n != 0 {
		t.Fatalf("core.subscribe.log_bytes is %d above where it started once the log emptied", n)
	}
}

func TestUpdateLogReleasesFrames(t *testing.T) {
	// Entries every cursor has read are released, and the last cursor's
	// release empties the log: no slot pins a frame either way.
	svc := NewService(ServiceConfig{DisableRollups: true})
	defer svc.Close()
	allID, all := openLocal(t, svc, "ns/")
	hwID, hw := openLocal(t, svc, "ns/hardware/")
	for i := 0; i < 10; i++ {
		svc.Publish(NSHardware, seqTree(i), 0)
		svc.Publish(NSWorkflow, seqTree(i), 0)
	}
	if n := referencedFrames(svc); n != 20 {
		t.Fatalf("%d slots reference a frame before any read, want 20", n)
	}
	if ents, _ := drain(svc, all); len(ents) != 20 {
		t.Fatalf("the all-namespace cursor read %d, want 20", len(ents))
	}
	// The log is one sequence: a cursor that has read nothing holds every
	// entry from its position on, the workflow entries between its own too.
	if n := referencedFrames(svc); n != 20 {
		t.Fatalf("%d slots reference a frame while the hardware cursor has read nothing, want 20", n)
	}
	if ents, _ := drain(svc, hw); len(ents) != 10 {
		t.Fatalf("the hardware cursor read %d, want 10", len(ents))
	}
	if n, b := referencedFrames(svc), logBytes(svc); n != 0 || b != 0 {
		t.Fatalf("after every cursor read, %d slots reference a frame and the log holds %d bytes", n, b)
	}

	for i := 0; i < 5; i++ {
		svc.Publish(NSHardware, seqTree(i), 0)
	}
	svc.updates.remove(allID, false)
	svc.updates.remove(hwID, false)
	if n, b := referencedFrames(svc), logBytes(svc); n != 0 || b != 0 {
		t.Fatalf("after the last unsub, %d slots reference a frame and the log holds %d bytes", n, b)
	}
	svc.Publish(NSHardware, seqTree(99), 0)
	if n := referencedFrames(svc); n != 0 {
		t.Fatalf("a publish nobody subscribes to entered the log (%d slots)", n)
	}
}

func TestFanOutNoAllocs(t *testing.T) {
	// Logging a publish run for an open cursor that is not parked costs no
	// allocation: the entry references the stored frame.
	svc := NewService(ServiceConfig{DisableRollups: true})
	defer svc.Close()
	_, c := openLocal(t, svc, "ns/hardware/")
	tp := slices.Index(Namespaces, NSHardware)
	run := []pub{{ns: NSHardware, in: svc.instances[NSHardware], enc: seqTree(1).EncodeBinary()}}
	// Grow the ring past what the measured runs append, then read it empty.
	for i := 0; i < 256; i++ {
		svc.updates.appendRun(tp, 1, run)
	}
	if ents, _ := drain(svc, c); len(ents) != 256 {
		t.Fatalf("read %d of 256 logged entries", len(ents))
	}
	if allocs := testing.AllocsPerRun(100, func() { svc.updates.appendRun(tp, 1, run) }); allocs != 0 {
		t.Fatalf("fan-out of a one-publish run allocates %v times", allocs)
	}
}

func TestSubscribePrefixMask(t *testing.T) {
	want := [8]string{
		"ns/workflow/", "ns/hardware/", "ns/performance/", "ns/application/",
		"alerts/workflow/", "alerts/hardware/", "alerts/performance/", "alerts/application/",
	}
	if topics != want {
		t.Fatalf("topics = %q, want %q", topics, want)
	}
	for _, tc := range []struct {
		prefix  string
		matches int
	}{
		{"", 8}, {"ns/", 4}, {"ns/hardware/", 1}, {"ns/hard", 1},
		{"alerts/", 4}, {"alerts/workflow/", 1}, {"bogus", 0},
	} {
		m, n := prefixMask(tc.prefix), 0
		for i, topic := range topics {
			got, want := m&(1<<i) != 0, strings.HasPrefix(topic, tc.prefix)
			if got != want {
				t.Errorf("prefixMask(%q) has %q = %v, strings.HasPrefix says %v", tc.prefix, topic, got, want)
			}
			if got {
				n++
			}
		}
		if n != tc.matches {
			t.Errorf("prefixMask(%q) matches %d topics, want %d", tc.prefix, n, tc.matches)
		}
	}
}

func TestUpdateLogParkedRecvsShareNothing(t *testing.T) {
	// Two recvs parked on one subscription id split what is published: no
	// entry reaches both, and none is lost.
	svc, addr := streamService(t, "inproc")
	st := dialStream(t, addr, "ns/")
	const n = 200
	var (
		mu    sync.Mutex
		seen  = map[int64]int{}
		total int
		wg    sync.WaitGroup
	)
	deadline := time.Now().Add(10 * time.Second)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ups, _, _, err := recvUpdates(st, 4, 200*time.Millisecond)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for _, u := range ups {
					v, _ := u.Tree.Int("SEQ/cn01/v")
					seen[v]++
				}
				total += len(ups)
				done := total >= n
				mu.Unlock()
				if done {
					return
				}
			}
		}()
	}
	waitParked(t, svc, 2)
	for i := 0; i < n; i++ {
		svc.Publish(NSHardware, seqTree(i), 0)
	}
	wg.Wait()
	if total != n || len(seen) != n {
		t.Fatalf("the two recvs returned %d updates, %d distinct, want %d once each", total, len(seen), n)
	}
	for v, k := range seen {
		if k != 1 {
			t.Fatalf("update %d reached %d recvs", v, k)
		}
	}
}
