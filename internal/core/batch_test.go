package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// Publishes coalesced into batches must land on the server in publish order,
// including across flush boundaries: with MaxLeaves=4 a run of 50 publishes
// spans many batch frames, and the stored records must still be monotonic.
func TestBatchOrderingAcrossFlushBoundaries(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 4, MaxAge: time.Hour}) // only count flushes

	const total = 50
	for i := 0; i < total; i++ {
		n := conduit.NewNode()
		n.SetInt("order/seq", int64(i))
		if err := c.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Published(); got != total {
		t.Fatalf("Published() = %d, want %d", got, total)
	}

	// The pending records preserve publish order across every flush boundary
	// (read before the query below folds them away).
	pend := pendingRecords(svc.instances[NSWorkflow])
	if len(pend) != total {
		t.Fatalf("service holds %d records, want %d", len(pend), total)
	}
	for i, rec := range pend {
		tree, err := conduit.DecodeBinary(rec.enc)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := tree.Int("order/seq"); !ok || v != int64(i) {
			t.Fatalf("record[%d] seq = %d (%v), want %d", i, v, ok, i)
		}
	}
	// And last writer wins in the merged tree.
	tree, err := svc.Query(NSWorkflow, "order")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Int("seq"); !ok || v != total-1 {
		t.Fatalf("merged seq = %d (%v), want %d", v, ok, total-1)
	}
}

// One batch frame may interleave several namespaces; the server's run
// grouping must route every entry to its own instance.
func TestBatchMixedNamespaces(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 512, MaxAge: time.Hour})

	namespaces := []Namespace{NSHardware, NSWorkflow, NSHardware, NSApplication, NSWorkflow}
	for i, ns := range namespaces {
		n := conduit.NewNode()
		n.SetInt(fmt.Sprintf("mixed/e%d", i), int64(i*10))
		if err := c.Publish(ns, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i, ns := range namespaces {
		tree, err := svc.Query(ns, "mixed")
		if err != nil {
			t.Fatalf("query %s: %v", ns, err)
		}
		if v, ok := tree.Int(fmt.Sprintf("e%d", i)); !ok || v != int64(i*10) {
			t.Fatalf("%s mixed/e%d = %d (%v), want %d", ns, i, v, ok, i*10)
		}
	}
	// All five entries ride batch frames, each acknowledged exactly once.
	if got := c.Published(); got != int64(len(namespaces)) {
		t.Fatalf("Published() = %d, want %d", got, len(namespaces))
	}
}

// An unknown namespace is rejected at Publish/PublishEncoded, before anything
// is enqueued: its valid neighbours in the pending batch still land. The
// service keeps rejecting a whole frame atomically when a hand-built one
// smuggles a bogus entry past the client.
func TestBatchUnknownNamespace(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 512, MaxAge: time.Hour})

	good := conduit.NewNode()
	good.SetInt("atomic/ok", 1)
	if err := c.Publish(NSWorkflow, good); err != nil {
		t.Fatal(err)
	}
	bad := conduit.NewNode()
	bad.SetInt("atomic/bad", 2)
	var unknown *ErrUnknownNamespace
	if err := c.Publish(Namespace("bogus"), bad); !errors.As(err, &unknown) {
		t.Fatalf("Publish into a bogus namespace = %v, want ErrUnknownNamespace", err)
	}
	if err := c.PublishEncoded(Namespace("bogus"), bad.EncodeBinary()); !errors.As(err, &unknown) {
		t.Fatalf("PublishEncoded into a bogus namespace = %v, want ErrUnknownNamespace", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: the rejected publish voided its neighbour: %v", err)
	}
	if pend := pendingRecords(svc.instances[NSWorkflow]); len(pend) != 1 {
		t.Fatalf("service holds %d records, want the 1 valid neighbour", len(pend))
	}
	if got := c.Published(); got != 1 {
		t.Fatalf("Published() = %d, want 1", got)
	}

	frame := conduit.AppendBatchHeader(nil)
	frame = conduit.AppendBatchEntryEncoded(frame, string(NSWorkflow), good.EncodeBinary())
	frame = conduit.AppendBatchEntryEncoded(frame, "bogus", bad.EncodeBinary())
	if _, err := c.ep.Call(context.Background(), RPCPublishBatch, frame); err == nil {
		t.Fatal("service accepted a hand-built batch frame with a bogus namespace")
	}
	if pend := pendingRecords(svc.instances[NSWorkflow]); len(pend) != 1 {
		t.Fatalf("atomically-rejected frame leaked: service holds %d records, want 1", len(pend))
	}
}

// Published must count at send-acknowledgement, exactly once per leaf, when
// the age timer and the leaf threshold both ship batches.
func TestPublishedCountsAtAckWithBatch(t *testing.T) {
	_, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 16, MaxAge: time.Millisecond})

	const total = 100
	for i := 0; i < total; i++ {
		n := conduit.NewNode()
		n.SetInt("ack/count", int64(i))
		if err := c.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Published(); got != total {
		t.Fatalf("Published() = %d after flush, want exactly %d", got, total)
	}
}

// A batching + spilling client must ride out a service restart with zero
// loss: frames queued during the outage redeliver verbatim, in order, once
// the service is back, and Published converges on the exact
// publish count.
func TestSpillDrainsThroughBatchRedelivery(t *testing.T) {
	svc := NewService(ServiceConfig{})
	addr, err := svc.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 8, MaxAge: time.Millisecond})
	c.EnableSpill(256)

	pub := func(i int) {
		n := conduit.NewNode()
		n.SetInt("restart/seq", int64(i))
		if err := c.Publish(NSWorkflow, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	const before, during = 10, 30
	for i := 0; i < before; i++ {
		pub(i)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush before outage: %v", err)
	}

	svc.Close()
	for i := before; i < before+during; i++ {
		pub(i)
	}
	// Outage publishes flush into transient failures and spill frame by frame.
	deadline := time.Now().Add(10 * time.Second)
	for c.Spill().Buffered < during {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d outage publishes spilled", c.Spill().Buffered, during)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Degraded() {
		t.Fatal("client not degraded during outage")
	}

	svc2 := NewService(ServiceConfig{})
	if _, err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer svc2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := c.DrainSpill(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := c.Spill()
	if st.Redelivered != during || st.Dropped != 0 {
		t.Fatalf("spill stats after drain = %+v, want %d redelivered / 0 dropped", st, during)
	}
	if got := c.Published(); got != before+during {
		t.Fatalf("Published() = %d, want %d (zero loss, exactly-once counting)", got, before+during)
	}
	// The restarted service received every outage publish, in order.
	pend := pendingRecords(svc2.instances[NSWorkflow])
	if len(pend) != during {
		t.Fatalf("restarted service has %d records, want %d", len(pend), during)
	}
	for i, rec := range pend {
		tree, err := conduit.DecodeBinary(rec.enc)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := tree.Int("restart/seq"); !ok || v != int64(before+i) {
			t.Fatalf("record[%d] seq = %d (%v), want %d", i, v, ok, before+i)
		}
	}
}

// The server's one ingest path is decode-free: batch entries are validated
// and stored as wire bytes, folded straight into snapshots, rolled up from
// the bytes, and never decoded by the service — in the shipped configuration,
// rollups on.
func TestBatchRawIngestPath(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableBatch(BatchConfig{MaxLeaves: 512, MaxAge: time.Hour})

	// Overlapping paths across publishes exercise the wire-merge fold: the
	// second write must overwrite the scalar, and sibling leaves must
	// accumulate, exactly as tree Merge would.
	const total = 40
	for i := 0; i < total; i++ {
		n := conduit.NewNode()
		n.SetInt("raw/seq", int64(i))
		n.SetFloat(fmt.Sprintf("raw/load/cn%02d", i%8), float64(i))
		n.SetString("raw/state", "ok")
		n.SetIntArray("raw/hist", []int64{int64(i), int64(i + 1)})
		if err := c.Publish(NSHardware, n); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := c.Published(); got != total {
		t.Fatalf("Published() = %d, want %d", got, total)
	}

	// Every pending record is a validated subslice of the retained wire frame,
	// in publish order (read before the query below folds them away).
	pend := pendingRecords(svc.instances[NSHardware])
	if len(pend) != total {
		t.Fatalf("service holds %d records, want %d", len(pend), total)
	}
	for i, rec := range pend {
		tree, err := conduit.DecodeBinary(rec.enc)
		if err != nil {
			t.Fatalf("record %d is not a raw wire frame: %v", i, err)
		}
		if v, ok := tree.Int("raw/seq"); !ok || v != int64(i) {
			t.Fatalf("record[%d] seq = %d (%v), want %d", i, v, ok, i)
		}
		if ia, ok := tree.IntArray("raw/hist"); !ok || len(ia) != 2 || ia[0] != int64(i) {
			t.Fatalf("record[%d] hist = %v (%v)", i, ia, ok)
		}
	}

	// Query folds the raw records into the snapshot without materializing.
	tree, err := svc.Query(NSHardware, "raw")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Int("seq"); !ok || v != total-1 {
		t.Fatalf("merged seq = %d (%v), want %d", v, ok, total-1)
	}
	for h := 0; h < 8; h++ {
		want := float64(total - 8 + h)
		if v, ok := tree.Float(fmt.Sprintf("load/cn%02d", (total-8+h)%8)); !ok || v != want {
			t.Fatalf("load/cn%02d = %v (%v), want %v", (total-8+h)%8, v, ok, want)
		}
	}
	if s, ok := tree.StringVal("state"); !ok || s != "ok" {
		t.Fatalf("state = %q (%v), want ok", s, ok)
	}

	// The rollups saw every numeric leaf.
	se, err := svc.QuerySeries(NSHardware, "raw/seq", LevelRaw, 0)
	if err != nil || len(se.Points) != total || se.Points[total-1].Value != total-1 {
		t.Fatalf("rollup of raw/seq: %d points (err=%v), want %d ending at %d", len(se.Points), err, total, total-1)
	}

	// Stats accounting runs on the raw path too.
	for _, st := range svc.Stats() {
		if st.Namespace != NSHardware {
			continue
		}
		if st.Publishes != total {
			t.Fatalf("stats publishes = %d, want %d", st.Publishes, total)
		}
		if st.BytesIn == 0 {
			t.Fatal("stats bytes_in = 0 on the raw path")
		}
	}
}

// A publisher's frame is retained from the door to the fold and no longer: once
// a read has folded the batch into the snapshot, no stripe holds a record of it.
func TestFoldReleasesRecords(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{})
	frame := conduit.AppendBatchHeader(nil)
	const total = 16
	for i := 0; i < total; i++ {
		frame = conduit.AppendBatchEntryEncoded(frame, string(NSHardware), seqTree(i).EncodeBinary())
	}
	if _, err := svc.handlePublishBatch(context.Background(), frame); err != nil {
		t.Fatal(err)
	}
	in := svc.instances[NSHardware]
	if pend := pendingRecords(in); len(pend) != total {
		t.Fatalf("%d records pending before the fold, want %d", len(pend), total)
	}
	tree, err := svc.Query(NSHardware, "")
	if err != nil || tree.NumLeaves() == 0 {
		t.Fatalf("query after the batch: %d leaves (err=%v)", tree.NumLeaves(), err)
	}
	if pend := pendingRecords(in); len(pend) != 0 {
		t.Fatalf("%d records still pending after the fold", len(pend))
	}
}

// Batch ingest must reject a frame atomically on validation failure: an
// unknown namespace or a structurally corrupt entry anywhere in the frame
// means nothing of it is applied — no record, no rollup sample, no alert
// transition, no update-log entry — even for the valid entries ahead of it.
func TestBatchRejectsAtomically(t *testing.T) {
	svc, _ := newTestService(t, ServiceConfig{})
	if err := svc.SetAlert(AlertRule{Name: "hot", NS: NSWorkflow, Pattern: "atomic/*", Op: ">", Threshold: 0}); err != nil {
		t.Fatal(err)
	}
	updates, cancel, err := svc.SubscribeLocal("")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	good := conduit.NewNode()
	good.SetInt("atomic/ok", 1)

	// Unknown namespace after a valid entry.
	frame := conduit.AppendBatchHeader(nil)
	frame = conduit.AppendBatchEntryEncoded(frame, string(NSWorkflow), good.EncodeBinary())
	frame = conduit.AppendBatchEntryEncoded(frame, "bogus", good.EncodeBinary())
	if _, err := svc.handlePublishBatch(context.Background(), frame); err == nil {
		t.Fatal("batch with unknown namespace accepted")
	}

	// Structurally corrupt tree bytes after a valid entry: flip the root kind
	// byte of the second entry's tree to an unknown kind.
	frame = conduit.AppendBatchHeader(nil)
	frame = conduit.AppendBatchEntryEncoded(frame, string(NSWorkflow), good.EncodeBinary())
	mark := len(frame)
	frame = conduit.AppendBatchEntryEncoded(frame, string(NSWorkflow), good.EncodeBinary())
	// Entry layout: uvarint nsLen, ns, u32 treeLen, 4-byte tree magic, kind.
	kindOff := mark + 1 + len(NSWorkflow) + 4 + 4
	frame[kindOff] = 0xEE
	if _, err := svc.handlePublishBatch(context.Background(), frame); err == nil {
		t.Fatal("batch with corrupt tree bytes accepted")
	}

	if pend := pendingRecords(svc.instances[NSWorkflow]); len(pend) != 0 {
		t.Fatalf("rejected batch leaked %d records", len(pend))
	}
	if st := svc.Stats()[0]; st.Publishes != 0 || st.Leaves != 0 {
		t.Fatalf("rejected batch counted: %+v", st)
	}
	if keys, err := svc.SeriesKeys(NSWorkflow, ""); err != nil || len(keys) != 0 {
		t.Fatalf("rejected batch left rollup series %v (err=%v)", keys, err)
	}
	if _, states := svc.Alerts(); len(states) != 0 {
		t.Fatalf("rejected batch moved alert standings: %+v", states)
	}
	svc.updates.mu.Lock()
	logged := svc.updates.tail
	svc.updates.mu.Unlock()
	if logged != 0 {
		t.Fatalf("rejected batch reached the update log: %d entries", logged)
	}
	select {
	case u := <-updates:
		t.Fatalf("rejected batch reached a subscriber: %s update", u.NS)
	default:
	}
}
