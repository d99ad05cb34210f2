package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Publish spill: graceful degradation for the client stub. When the service
// is unreachable (severed connection, open breaker, attempt timeout) a
// spill-enabled client absorbs outgoing publish frames into a bounded
// in-memory queue and a background loop redelivers them — verbatim, oldest
// first, on the shared backoff schedule — once the service heals. Monitoring
// data keeps flowing through restarts and network blips instead of erroring
// back into the instrumented component, which has no better recourse than
// dropping it.
//
// The queue holds encoded frames exactly as Client.deliver would have sent
// them: a soma.publish envelope (one entry) or a soma.publish.batch frame
// (as many entries as it coalesced). Capacity and every statistic are in
// entries; a frame contributes its leaf count.
//
// Only transient transport failures spill (mercury.IsTransient, asked in
// Client.send); a definitive verdict at redelivery (handler error,
// stopped service) drops the frame, counts its entries in Dropped and
// surfaces through Flush — redelivering it would loop forever. When the
// queue is over capacity whole frames are evicted oldest first (counted),
// never the one just added: under merge's last-writer-wins semantics newer
// monitoring data supersedes older. Unbatched, a frame is one entry and
// eviction is entry-exact; batched, eviction is as coarse as the frames the
// coalescer shipped, so up to one frame's worth of entries beyond the
// overflow may go with it (and a single frame larger than the capacity is
// kept until it resolves).

var (
	telSpillDepth       = telemetry.Default().Gauge("core.client.spill.depth")
	telSpillTotal       = telemetry.Default().Counter("core.client.spill.buffered_total")
	telSpillRedelivered = telemetry.Default().Counter("core.client.spill.redelivered")
	telSpillDropped     = telemetry.Default().Counter("core.client.spill.dropped")
)

// DefaultSpillCapacity bounds the spill buffer when EnableSpill is given no
// explicit capacity.
const DefaultSpillCapacity = 1024

// SpillStats is a point-in-time view of a client's spill queue, in entries.
type SpillStats struct {
	Enabled     bool
	Buffered    int // entries currently awaiting redelivery
	Capacity    int
	Spilled     int64 // entries that ever entered the queue
	Redelivered int64
	Dropped     int64 // overflow evictions + definitive redelivery failures
}

// spillFrame is one queued wire frame: the RPC it was bound for, a private
// copy of its bytes, and how many publishes it carries.
type spillFrame struct {
	rpc    string
	data   []byte
	leaves int
}

type spillState struct {
	c   *Client
	max int // capacity in entries

	mu      sync.Mutex
	cond    *sync.Cond
	q       []spillFrame
	entries int // Σ leaves over q
	// headSeq counts every head removal (resolution or overflow eviction)
	// ever performed, so a redelivery attempt can tell whether the head it
	// sent is still the head when the attempt resolves (see resolve).
	headSeq uint64

	closed bool
	stop   chan struct{}
	done   chan struct{}

	spilled, redelivered, dropped int64
}

// EnableSpill switches the client into graceful-degradation mode: publish
// frames that fail with a transient transport error are queued (up to
// capacity entries; <1 = DefaultSpillCapacity) and redelivered in order by a
// background loop once the service is reachable again. Call DrainSpill
// before Close to guarantee queued frames were delivered.
func (c *Client) EnableSpill(capacity int) {
	if capacity < 1 {
		capacity = DefaultSpillCapacity
	}
	sp := &spillState{
		c:    c,
		max:  capacity,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	sp.cond = sync.NewCond(&sp.mu)
	if !c.spill.CompareAndSwap(nil, sp) {
		return // already enabled
	}
	go sp.redeliverLoop()
}

// Spill returns the spill queue's current statistics (zero value when spill
// was never enabled).
func (c *Client) Spill() SpillStats {
	sp := c.spill.Load()
	if sp == nil {
		return SpillStats{}
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return SpillStats{
		Enabled:     true,
		Buffered:    sp.entries,
		Capacity:    sp.max,
		Spilled:     sp.spilled,
		Redelivered: sp.redelivered,
		Dropped:     sp.dropped,
	}
}

// Degraded reports whether the client is currently operating in degraded
// mode (publishes queued locally awaiting redelivery).
func (c *Client) Degraded() bool {
	sp := c.spill.Load()
	return sp != nil && sp.pending() > 0
}

// DrainSpill blocks until every queued frame has been redelivered (or
// dropped), or ctx expires — in which case it reports how many entries were
// still stranded. Call it before Close when buffered data must not be lost.
func (c *Client) DrainSpill(ctx context.Context) error {
	sp := c.spill.Load()
	if sp == nil {
		return nil
	}
	stopWatch := context.AfterFunc(ctx, func() {
		sp.mu.Lock()
		sp.cond.Broadcast()
		sp.mu.Unlock()
	})
	defer stopWatch()
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for len(sp.q) > 0 && !sp.closed {
		if ctx.Err() != nil {
			return fmt.Errorf("soma: spill drain: %d entries still buffered: %w", sp.entries, ctx.Err())
		}
		sp.cond.Wait()
	}
	return nil
}

// add queues a private copy of one frame behind everything already queued,
// then evicts whole frames from the head while the queue is over capacity —
// never the frame just added. Reports false when the spill has been shut
// down (the caller falls back to its un-degraded outcome).
func (sp *spillState) add(rpc string, frame []byte, leaves int) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return false
	}
	sp.q = append(sp.q, spillFrame{rpc: rpc, data: append([]byte(nil), frame...), leaves: leaves})
	sp.entries += leaves
	sp.spilled += int64(leaves)
	telSpillTotal.Add(int64(leaves))
	telSpillDepth.Add(int64(leaves))
	for sp.entries > sp.max && len(sp.q) > 1 {
		sp.removeHead(false)
	}
	sp.cond.Broadcast()
	return true
}

// removeHead takes the head frame off the queue and accounts its entries as
// redelivered or dropped. Called with sp.mu held.
func (sp *spillState) removeHead(redelivered bool) {
	leaves := sp.q[0].leaves
	sp.q[0] = spillFrame{} // release the frame's bytes
	sp.q = sp.q[1:]
	sp.entries -= leaves
	sp.headSeq++
	n := int64(leaves)
	if redelivered {
		sp.redelivered += n
		telSpillRedelivered.Add(n)
	} else {
		sp.dropped += n
		telSpillDropped.Add(n)
	}
	telSpillDepth.Add(-n)
}

// pending reports the queue depth in frames (ordering check on the publish
// path: while frames wait, new ones must queue behind them).
func (sp *spillState) pending() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.q)
}

// resolve removes the head after the redelivery attempt that read it at
// head sequence seq got its answer. When an overflow eviction took that
// frame while it was in flight the head has moved on: the frame is already
// gone (counted dropped, though it may have been delivered — the statistics
// are the only casualty of that race) and the frames behind it, which were
// never sent, stay queued.
func (sp *spillState) resolve(seq uint64, redelivered bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.headSeq != seq {
		return
	}
	sp.removeHead(redelivered)
	sp.cond.Broadcast()
}

// shutdown stops the redelivery loop. Frames still queued stay counted in
// Buffered (callers wanting zero loss drain first).
func (sp *spillState) shutdown() {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return
	}
	sp.closed = true
	sp.cond.Broadcast()
	sp.mu.Unlock()
	close(sp.stop)
	<-sp.done
}

// redeliverLoop resends the head frame, verbatim, until it resolves: an
// acknowledgement or a definitive verdict removes it (the latter surfacing
// through Flush), a transient failure backs off on the shared schedule and
// tries again. It sends through Client.send, never deliver, so a failed
// redelivery leaves the frame where it is instead of re-spilling it.
func (sp *spillState) redeliverLoop() {
	defer close(sp.done)
	bo := mercury.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	attempt := 0
	for {
		sp.mu.Lock()
		for len(sp.q) == 0 && !sp.closed {
			sp.cond.Wait()
		}
		if sp.closed {
			sp.mu.Unlock()
			return
		}
		head, seq := sp.q[0], sp.headSeq
		sp.mu.Unlock()

		transient, err := sp.c.send(head.rpc, head.data, head.leaves)
		if transient {
			t := time.NewTimer(bo.Delay(attempt))
			attempt++
			select {
			case <-sp.stop:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		// The failure is recorded before resolve lets DrainSpill see the
		// queue empty, so the Flush after a drain reports it.
		if err != nil {
			sp.c.fail(fmt.Errorf("soma: spill redelivery dropped: %w", err))
		}
		sp.resolve(seq, err == nil)
		attempt = 0
	}
}
