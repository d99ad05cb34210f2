package core

import (
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Client-side publish coalescing: many logical publishes packed into one
// soma.publish.batch wire frame. A coalescer encodes each publish into the
// pending batch frame inline (no per-entry deferred work) and a flusher
// goroutine ships the frame when it reaches the byte budget, the leaf
// count, or the age bound — whichever trips first. One round-trip then
// acknowledges hundreds of publishes, which is what lets a single TCP
// connection carry tens of thousands of logical publishers.
//
// Ordering: entries leave in append order. flush swaps the pending buffer
// under sendMu, so appends never wait on the wire, while batch N+1 cannot
// overtake batch N. Each frame leaves through Client.deliver, so when one
// spills (transient failure) the batches after it queue behind it until
// redelivery drains the spill, preserving per-client publish order end to
// end.

var (
	telBatchFlushes = telemetry.Default().Counter("core.client.batch.flushes")
	telBatchLeaves  = telemetry.Default().Counter("core.client.batch.leaves")
	// telBatchAck measures enqueue→acknowledgement for the OLDEST entry of
	// each flushed batch: queue dwell plus wire round-trip.
	telBatchAck = telemetry.Default().Histogram("core.client.publish.ack.latency")
	// Flush-cause breakdown: which threshold shipped each batch. A byte/leaf
	// dominated mix means the coalescer is running at capacity; an
	// age-dominated mix means sparse publishers are paying MaxAge of latency
	// for little amortization.
	telBatchFlushBytes  = telemetry.Default().Counter("core.client.batch.flush.bytes")
	telBatchFlushLeaves = telemetry.Default().Counter("core.client.batch.flush.leaves")
	telBatchFlushAge    = telemetry.Default().Counter("core.client.batch.flush.age")
	// telBatchBackpressure counts appends that hit the overfill bound and had
	// to flush inline and retry — publishers outrunning the wire.
	telBatchBackpressure = telemetry.Default().Counter("core.client.batch.backpressure")
)

// Flush causes, attributed per shipped batch (see flushFor).
const (
	flushCauseNone = iota
	flushCauseBytes
	flushCauseLeaves
	flushCauseAge
)

// BatchConfig tunes a client's publish coalescer; zero values select the
// defaults noted on each field.
type BatchConfig struct {
	// MaxBytes flushes the pending batch when its encoded frame reaches
	// this size (default 64 KiB — large enough to amortize the round-trip,
	// small enough to stay pooled by the transport).
	MaxBytes int
	// MaxLeaves flushes after this many coalesced publishes (default 512).
	MaxLeaves int
	// MaxAge bounds how long an entry may sit unflushed (default 1ms); the
	// tail-latency knob for sparse publishers.
	MaxAge time.Duration
}

func (cfg *BatchConfig) defaults() {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 10
	}
	if cfg.MaxLeaves <= 0 {
		cfg.MaxLeaves = 512
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = time.Millisecond
	}
}

// batchOverfill bounds how far past the flush thresholds the pending buffer
// may grow while a flush is in flight before appends apply backpressure
// (flush inline and retry, never an error).
const batchOverfill = 4

type coalescer struct {
	c   *Client
	cfg BatchConfig

	mu      sync.Mutex
	buf     []byte    // pending batch frame (header + encoded entries)
	leaves  int       // publishes coalesced into buf
	firstAt time.Time // append time of the oldest pending entry
	cause   int       // which threshold filled the pending batch (flushCause*)
	closed  bool

	// sendMu serializes flushes: the buffer swap and the wire send happen
	// under it, so batches depart in swap order while appends (under mu
	// only) never block on the network.
	sendMu   sync.Mutex
	spareBuf []byte // previous batch's buffer, recycled for the next swap

	kick     chan struct{}
	ageTimer *time.Timer
	stop     chan struct{}
	done     chan struct{}
}

// EnableBatch switches the client's publishes into coalescing mode: Publish
// and PublishEncoded become a non-blocking enqueue, packed into
// soma.publish.batch frames that a background flusher ships by size, count
// or age (see BatchConfig); Flush drains the pending batch and returns the
// first delivery failure since the previous Flush. Composes with EnableSpill
// (a batch frame that fails transiently spills whole and is redelivered
// verbatim).
func (c *Client) EnableBatch(cfg BatchConfig) {
	cfg.defaults()
	co := &coalescer{
		c:        c,
		cfg:      cfg,
		buf:      conduit.AppendBatchHeader(nil),
		kick:     make(chan struct{}, 1),
		ageTimer: time.NewTimer(cfg.MaxAge),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if !c.coal.CompareAndSwap(nil, co) {
		return // already enabled
	}
	go co.run()
}

// append copies one publish — enc is its valid tree frame — into the pending
// batch. When the buffer has outgrown the overfill bound it applies
// backpressure: the caller helps flush inline (serialized behind the flusher
// on sendMu) and retries, so a publisher outrunning the wire slows to the
// wire's pace instead of erroring — the synchronous-publish contract.
func (co *coalescer) append(ns Namespace, enc []byte) error {
retry:
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return co.c.publishDirect(ns, enc)
	}
	if co.leaves >= co.cfg.MaxLeaves*batchOverfill || len(co.buf) >= co.cfg.MaxBytes*batchOverfill {
		co.mu.Unlock()
		telBatchBackpressure.Inc()
		co.flush()
		goto retry
	}
	if co.leaves == 0 {
		co.firstAt = time.Now()
		co.ageTimer.Reset(co.cfg.MaxAge)
	}
	co.buf = conduit.AppendBatchEntryEncoded(co.buf, string(ns), enc)
	co.leaves++
	full := co.leaves >= co.cfg.MaxLeaves || len(co.buf) >= co.cfg.MaxBytes
	if full && co.cause == flushCauseNone {
		if co.leaves >= co.cfg.MaxLeaves {
			co.cause = flushCauseLeaves
		} else {
			co.cause = flushCauseBytes
		}
	}
	co.mu.Unlock()
	if full {
		select {
		case co.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// run is the flusher goroutine: size/count kicks and the age timer both
// land here; stop triggers a final drain.
func (co *coalescer) run() {
	defer close(co.done)
	for {
		select {
		case <-co.stop:
			co.flush()
			return
		case <-co.kick:
			co.flush()
		case <-co.ageTimer.C:
			co.flushFor(flushCauseAge)
		}
	}
}

// flush ships the pending batch, if any. Safe to call from any goroutine;
// sendMu keeps concurrent flushes ordered.
func (co *coalescer) flush() { co.flushFor(flushCauseNone) }

// flushFor is flush with the caller's trigger attribution. A byte/leaf cause
// recorded at append time wins over the caller's reason (the thresholds are
// what actually filled the batch); reason covers the age-timer path. A frame
// deliver could neither send nor spill is dropped and its error kept for the
// next Client.Flush.
func (co *coalescer) flushFor(reason int) {
	co.sendMu.Lock()
	defer co.sendMu.Unlock()
	co.mu.Lock()
	if co.leaves == 0 {
		co.mu.Unlock()
		return
	}
	buf, leaves, firstAt := co.buf, co.leaves, co.firstAt
	cause := co.cause
	co.cause = flushCauseNone
	co.buf = conduit.AppendBatchHeader(co.spareBuf[:0])
	co.leaves = 0
	co.mu.Unlock()
	if cause == flushCauseNone {
		cause = reason
	}

	err := co.c.deliver(RPCPublishBatch, buf, leaves)

	// The transport and the spill queue both copy what they keep, so buf is
	// free once deliver returns; recycle it for the next swap.
	co.spareBuf = buf[:0]
	if err != nil {
		co.c.fail(err)
		return
	}
	telBatchFlushes.Inc()
	telBatchLeaves.Add(int64(leaves))
	telBatchAck.Observe(time.Since(firstAt))
	switch cause {
	case flushCauseBytes:
		telBatchFlushBytes.Inc()
	case flushCauseLeaves:
		telBatchFlushLeaves.Inc()
	case flushCauseAge:
		telBatchFlushAge.Inc()
	}
}

// shutdown stops accepting entries, flushes what is pending and reclaims
// the flusher goroutine.
func (co *coalescer) shutdown() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	co.mu.Unlock()
	close(co.stop)
	<-co.done
	co.ageTimer.Stop()
}
