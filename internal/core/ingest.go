package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// The ingest pipeline. Every publish — soma.publish, soma.publish.batch,
// a forwarded soma.publish.local, a soma.handoff frame, or an in-process
// Service.Publish, which encodes its tree at the door — is the same three
// steps over the same form, CDT1 bytes:
//
//  1. validate: the request frame is structurally verified whole and its
//     namespaces resolved before anything is applied, so a request is
//     ingested atomically or rejected whole;
//  2. append: one private copy of the wire bytes is retained and every
//     publish is appended to a stripe as a raw record (record.enc) under one
//     lock acquisition per same-namespace run — no tree is built;
//  3. stream: the rollup, alert and fan-out stages run over the same bytes
//     (conduit.WalkNumericLeaves feeds the series store, the update log keeps
//     the entry's wire subslice for subscribers).
//
// Trees are materialized only where something reads them as trees: the
// snapshot rebuild folds raw records straight from their bytes into its
// accumulator (conduit.MergeBinaryIntoCached), Service.Query hands out the
// snapshot's tree. A publish's bytes live in a stripe's pending list until
// that fold and nowhere after.

// pub is one publish on its way through the pipeline: enc is a complete,
// validated CDT1 frame that the service owns — a subslice of its private copy
// of the request, or the door's encoding of an in-process tree.
type pub struct {
	ns  Namespace
	in  *instance
	enc []byte
}

// runEnd returns the end of the same-namespace run starting at pubs[i].
func runEnd(pubs []pub, i int) int {
	j := i + 1
	for j < len(pubs) && pubs[j].ns == pubs[i].ns {
		j++
	}
	return j
}

// append adds a run of publishes to one stripe under a SINGLE lock
// acquisition: per publish it costs one pending append and a seq bump.
// Sequence numbers are taken inside the lock so the run occupies a contiguous
// seq range (and one stripe's records stay seq-ordered); the generation bumps
// once, after every record is visible, so a snapshot stamped with the new
// gen contains the whole run. No tree is merged here; merging is deferred to
// the next snapshot rebuild.
func (in *instance) append(now float64, run []pub, rawBytes int) {
	st := in.stripes[int(in.rr.Add(1))%len(in.stripes)]
	st.mu.Lock()
	for k := range run {
		st.pending = append(st.pending, record{seq: in.seq.Add(1), enc: run[k].enc})
	}
	st.pubs += int64(len(run))
	st.bytesIn += int64(rawBytes)
	st.last = now
	st.mu.Unlock()
	in.gen.Add(uint64(len(run)))
}

// ingest is steps 2 and 3 of the pipeline for one validated request of
// len(pubs) >= 1 publishes, applied in order. Per-publish work is amortized
// per consecutive same-namespace run: one stripe-lock acquisition, one
// generation bump, one rollup pass and one alert evaluation over the union
// of touched series. batch selects the accounting of a multi-publish frame
// (span core.stripe.append.batch with its entry count, the batch latency
// histogram and frame counter) over that of a single publish; either way the
// span and the histogram cover the stripe appends alone and share their two
// clock reads, so tracing adds no time.Now to this path (see make
// telemetry-overhead). rawBytes is the request's wire size, split evenly
// across publishes for per-instance accounting with the remainder charged to
// the first run.
func (s *Service) ingest(ctx context.Context, pubs []pub, batch bool, rawBytes int) {
	now := s.cfg.Clock.Now()
	start := time.Now()
	name, latency := "core.stripe.append", telPubLatency
	if batch {
		name, latency = "core.stripe.append.batch", telBatchLatency
	}
	sp := telemetry.LeafSpanAt(ctx, name, start)
	if batch {
		sp.SetCount(int64(len(pubs))) // waterfall shows how many publishes this append covered
		telBatchFrames.Inc()
	}
	tid := sp.Context().TraceID // before EndAt: the span is pooled after it
	perPub := rawBytes / len(pubs)
	extra := rawBytes - perPub*len(pubs)
	for i := 0; i < len(pubs); {
		j := runEnd(pubs, i)
		pubs[i].in.append(now, pubs[i:j], perPub*(j-i)+extra)
		extra = 0
		i = j
	}
	end := time.Now()
	// ObserveTrace stamps the latency bucket with this trace id, so a p99
	// exemplar in soma.telemetry links straight to a kept trace.
	latency.ObserveTrace(end.Sub(start), tid)
	telPublishes.Add(int64(len(pubs)))
	sp.EndAt(end)

	// Stream side: fold each run into the rollup buckets, re-judge the alert
	// rules its series touch, and log it for the subscriptions that want its
	// topic. Each stage short-circuits to an atomic load when unused.
	armed := s.alerts.armed.Load()
	want := s.updates.want.Load()
	for i := 0; i < len(pubs); {
		j := runEnd(pubs, i)
		run := pubs[i:j]
		if st := run[0].in.rollup; st != nil {
			buf := watchBufs.Get().(*[]*series)
			watched, maxT := st.ingest(now, run, armed.of(run[0].ns), (*buf)[:0])
			if len(watched) > 0 {
				s.alerts.evaluate(run[0].ns, st, watched, maxT)
			}
			clear(watched) // pin no series a reset discards
			*buf = watched[:0]
			watchBufs.Put(buf)
		}
		if want != 0 {
			if tp := slices.Index(Namespaces, run[0].ns); tp >= 0 && want&(1<<tp) != 0 {
				s.updates.appendRun(tp, now, run)
			}
		}
		i = j
	}
}

// watchBufs recycles the buffers a run's watched series are collected in for
// alert evaluation. A pool rather than an array on Service.ingest's stack:
// 512 bytes more frame made the fresh handler goroutines that run it grow
// their stacks, which cost more than the allocation it saved.
var watchBufs = sync.Pool{New: func() any { return new([]*series) }}

// lookupNS resolves a namespace name as it appears on the wire to the
// canonical Namespace and its instance, without allocating.
func (s *Service) lookupNS(name []byte) (Namespace, *instance, error) {
	for _, ns := range Namespaces {
		if string(ns) == string(name) {
			return ns, s.instances[ns], nil
		}
	}
	return "", nil, &ErrUnknownNamespace{NS: Namespace(name)}
}

// errNilTree rejects an in-process publish that carries no tree.
var errNilTree = errors.New("soma: publish of a nil tree")

// Publish ingests a tree into a namespace directly (the local call path of
// the client stub; also what the in-proc simulated experiments use after
// RPC framing). rawBytes is the wire size for accounting (0 for local).
// The tree is encoded before the call returns and not retained: the caller
// may reuse or mutate it afterwards.
func (s *Service) Publish(ns Namespace, n *conduit.Node, rawBytes int) error {
	return s.PublishCtx(context.Background(), ns, n, rawBytes)
}

// PublishCtx is Publish with trace propagation: when ctx carries an active
// trace (a caller that started a span), the stripe append is recorded as a
// child span, so one publish can be followed client → wire → stripe append.
// Untraced callers pay one context lookup and a histogram observation. On a
// clustered service the publish is placed like a wire publish: forwarded to
// the owner of its first leaf, ingested here when that is this instance or
// the owner is unreachable (scattered reads still find it).
func (s *Service) PublishCtx(ctx context.Context, ns Namespace, n *conduit.Node, rawBytes int) error {
	in, err := s.running(ns)
	if err != nil {
		return err
	}
	if n == nil {
		return errNilTree
	}
	// The door: from here on the publish is the frame a client would have
	// sent, exact-size because the pending queue retains it until the next fold.
	enc := n.EncodeBinaryStable()
	if cl := s.cl.Load(); cl != nil {
		if done, err := cl.forwardPublish(ctx, ns, enc, nil); done {
			return err
		}
	}
	s.ingest(ctx, []pub{{ns: ns, in: in, enc: enc}}, false, rawBytes)
	return nil
}

// PublishBatch ingests a decoded batch of publishes in wire order; see
// PublishBatchCtx.
func (s *Service) PublishBatch(entries []conduit.BatchEntry, rawBytes int) error {
	return s.PublishBatchCtx(context.Background(), entries, rawBytes)
}

// PublishBatchCtx applies one batch of in-process publishes in order, with
// the batch accounting of a soma.publish.batch frame. Every entry's
// namespace and tree is checked before any is applied, so a batch is ingested
// atomically or rejected whole — a half-applied batch would leave a client's
// Published() accounting unreconcilable. Trees are encoded at the door,
// exactly like Publish. Batches are not placed: they ingest on this instance.
func (s *Service) PublishBatchCtx(ctx context.Context, entries []conduit.BatchEntry, rawBytes int) error {
	if s.Stopped() {
		return ErrServiceStopped
	}
	if len(entries) == 0 {
		return nil
	}
	pubs := make([]pub, len(entries))
	for i, e := range entries {
		in, err := s.instanceFor(Namespace(e.NS))
		if err != nil {
			return err
		}
		if e.Tree == nil {
			return errNilTree
		}
		pubs[i] = pub{ns: Namespace(e.NS), in: in, enc: e.Tree.EncodeBinaryStable()}
	}
	s.ingest(ctx, pubs, true, rawBytes)
	return nil
}

// Publish envelope fields, in the order publishEnvelope slices them.
var envelopeFields = []string{"ns", "data", "epoch"}

// publishEnvelope serves the single-publish wire RPCs — soma.publish,
// soma.publish.local and soma.handoff all carry a {ns, data} envelope
// (handoff adds the sender's ring epoch). The envelope is validated whole and
// taken apart by offset, the data field is copied once into a private frame
// (records outlive the engine's pooled request buffer) and ingested raw.
// cl, when non-nil, is the cluster the request concerns: a publish that is
// mis-placed in it goes to its owner — the payload goes out verbatim — and a
// handoff has its ring epoch checked against it, tolerates an envelope with
// nothing to hand over and never forwards.
func (s *Service) publishEnvelope(ctx context.Context, payload []byte, cl *svcCluster, handoff bool) ([]byte, error) {
	var f [3][]byte
	if err := conduit.SliceFields(payload, envelopeFields, f[:]); err != nil {
		return nil, err
	}
	if handoff {
		// The epoch stamp must match this instance's current ring exactly: a
		// mismatch means sender and receiver hold diverged membership views,
		// and accepting would apply placement decisions from a ring this
		// instance never agreed to. The sender retries once gossip converges.
		if epoch, _ := conduit.RawInt(f[2]); uint64(epoch) != cl.tracker.Ring().Epoch() {
			telHandoffStale.Inc()
			return nil, ErrStaleRingEpoch
		}
	}
	name, ok := conduit.RawString(f[0])
	if !ok {
		return nil, fmt.Errorf("soma: request missing ns field")
	}
	ns, in, err := s.lookupNS(name)
	if err != nil {
		return nil, err
	}
	if f[1] == nil {
		if handoff {
			return okFrame, nil
		}
		return nil, fmt.Errorf("soma: publish missing data")
	}
	if s.Stopped() {
		return nil, ErrServiceStopped
	}
	enc := conduit.AppendRawFrame(make([]byte, 0, 4+len(f[1])), f[1])
	if cl != nil && !handoff {
		if done, err := cl.forwardPublish(ctx, ns, enc, payload); err != nil {
			return nil, err
		} else if done {
			return okFrame, nil
		}
		// Not forwarded: this instance owns the key, or the owner is
		// unreachable — ingest locally, scattered reads still find it.
	}
	s.ingest(ctx, []pub{{ns: ns, in: in, enc: enc}}, false, len(payload))
	return okFrame, nil
}

// handlePublishBatch serves soma.publish.batch: the payload is a conduit
// batch frame (no {ns, data} envelope per entry — the namespace rides in the
// batch entry itself). Every entry's framing, namespace and tree structure is
// verified up front, then one private copy of the frame is retained and every
// entry subslice goes through ingest as a raw publish.
func (s *Service) handlePublishBatch(ctx context.Context, payload []byte) ([]byte, error) {
	ctx, sp := telemetry.ChildSpan(ctx, "soma.publish.batch.handler")
	defer sp.End()
	if s.Stopped() {
		return nil, ErrServiceStopped
	}
	count := 0
	if err := conduit.ForEachBatchEntry(payload, func(ns, enc []byte) error {
		if _, _, err := s.lookupNS(ns); err != nil {
			return err
		}
		count++
		return conduit.ValidateBinary(enc)
	}); err != nil {
		return nil, err
	}
	if count == 0 {
		return okFrame, nil
	}
	// Records outlive the engine's pooled request buffer: retain one private
	// copy of the frame and subslice every entry out of it.
	buf := append([]byte(nil), payload...)
	pubs := make([]pub, 0, count)
	// Framing was verified by the scan above; this pass cannot fail.
	_ = conduit.ForEachBatchEntry(buf, func(name, enc []byte) error {
		ns, in, _ := s.lookupNS(name)
		pubs = append(pubs, pub{ns: ns, in: in, enc: enc})
		return nil
	})
	s.ingest(ctx, pubs, true, len(payload))
	return okFrame, nil
}
