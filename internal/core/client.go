package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Client is the SOMA client stub (paper §2.2.1): it exposes the monitoring
// API and translates calls into RPCs. It runs inside the instrumented
// component's address space (monitor daemons, the TAU plugin, application
// tasks) and needs no resources of its own.
//
// Published trees are handed over to the service; callers must not mutate a
// tree after publishing it.
type Client struct {
	ep *mercury.Endpoint
	// addr, engine and policy remember how the endpoint was resolved so
	// subscriptions can redial after a connection loss (see subscribe.go).
	addr   string
	engine *mercury.Engine
	policy *mercury.CallPolicy

	// spill is the graceful-degradation buffer (nil until EnableSpill); see
	// spill.go.
	spill atomic.Pointer[spillState]

	// coal is the publish coalescer (nil until EnableBatch); see batch.go.
	coal atomic.Pointer[coalescer]
	// noBatch latches when the service reports soma.publish.batch as
	// unknown (an older server); publishes then bypass the coalescer and go
	// per-entry, mirroring the noDelta latch below.
	noBatch atomic.Bool

	mu    sync.Mutex
	async chan publishReq
	wg    sync.WaitGroup
	// Errs receives asynchronous publish failures; nil unless async mode
	// was enabled.
	Errs chan error
	// fireAndForget switches publishes to one-way notifications; atomic so
	// the publish hot path never takes c.mu for it.
	fireAndForget atomic.Bool

	// published counts successful publishes.
	published atomic.Int64

	// encSeen memoizes frames PublishEncoded has already validated, keyed
	// by first-byte pointer → frame length. A cached-payload publisher
	// re-sends the same immutable slices millions of times; validating
	// each slice once instead of per call takes ValidateBinary off the
	// hot path. Sound because the PublishEncoded contract forbids mutating
	// enc after the call. Bounded: reset wholesale past encSeenMax entries.
	encMu   sync.Mutex
	encSeen map[*byte]int

	// delta is the per-endpoint generation memo behind QueryDelta: the last
	// full response per (ns, path) with the (epoch, gen) stamp the service
	// sent alongside it. When a later poll's stamp still matches, the service
	// answers with a tiny "unchanged" frame and the memoized tree is reused.
	deltaMu sync.Mutex
	delta   map[string]*deltaMemo
	// noDelta latches when the service reports soma.query.delta as unknown
	// (an older server); all later QueryDelta calls fall back to plain
	// queries without re-probing.
	noDelta atomic.Bool
	// localRPCs switches reads to the ".local" single-shard RPC variants.
	// ClusterClient sets it on its per-member clients so each shard poll is
	// answered from that instance alone (with its own delta memo) instead of
	// being scattered server-side across the whole fleet. Set before use,
	// never flipped afterwards.
	localRPCs bool
	// Delta accounting for DeltaStats: polls answered "unchanged" and the
	// wire bytes those answers saved versus re-sending the memoized frame.
	deltaUnchanged  atomic.Int64
	deltaBytesSaved atomic.Int64
}

// deltaMemo is one (ns, path) entry of the client's generation memo.
type deltaMemo struct {
	epoch, gen int64
	tree       *conduit.Node
	frameLen   int // encoded size of the full response, for bytes-saved accounting
}

// maxDeltaMemos bounds the generation memo; queries for paths beyond the cap
// still work, they just never get the tiny-frame fast path.
const maxDeltaMemos = 256

type publishReq struct {
	ns   Namespace
	node *conduit.Node
	// flushed marks a Flush sentinel: the worker answers on it instead of
	// publishing, proving every earlier enqueued publish has been sent, and
	// reports the first error among them (buffered so the worker never
	// blocks on an abandoned Flush).
	flushed chan error
}

// Connect resolves the service address ("inproc://..." or "tcp://...") into
// a client. The optional engine (may be nil) accounts client-side RPC stats.
func Connect(addr string, engine *mercury.Engine) (*Client, error) {
	return ConnectPolicy(addr, engine, nil)
}

// ConnectPolicy is Connect with an explicit mercury call policy (timeouts,
// retries, circuit breaker); nil keeps the default. The policy survives
// reconnects — subscription redials and spill redelivery resolve new
// endpoints under the same policy.
func ConnectPolicy(addr string, engine *mercury.Engine, p *mercury.CallPolicy) (*Client, error) {
	var (
		ep  *mercury.Endpoint
		err error
	)
	if engine != nil {
		ep, err = engine.LookupPolicy(addr, p)
	} else {
		ep, err = mercury.LookupPolicy(addr, p)
	}
	if err != nil {
		return nil, fmt.Errorf("soma: connect %s: %w", addr, err)
	}
	return &Client{ep: ep, addr: addr, engine: engine, policy: p}, nil
}

// EnableAsync switches Publish to buffered asynchronous mode: publishes are
// queued (up to depth) and sent by a background goroutine, so the
// instrumented code never blocks on the service — the low-overhead
// transport mode for real-time deployments. Errors surface on c.Errs.
func (c *Client) EnableAsync(depth int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.async != nil {
		return
	}
	if depth < 1 {
		depth = 64
	}
	c.async = make(chan publishReq, depth)
	c.Errs = make(chan error, depth)
	// The worker must capture the channel VALUE: Close nils the field, and
	// a field read in the range expression could observe nil (range over a
	// nil channel blocks forever, deadlocking Close's wg.Wait).
	ch := c.async
	errs := c.Errs
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// pendErr is the first publish failure since the last Flush; a
		// Flush sentinel collects and clears it, so callers learn when
		// queued publishes died (e.g. the service stopped underneath them)
		// even if nothing reads c.Errs.
		var pendErr error
		for req := range ch {
			if req.flushed != nil {
				req.flushed <- pendErr
				pendErr = nil
				continue
			}
			if err := c.publishSync(req.ns, req.node); err != nil {
				if pendErr == nil {
					pendErr = err
				}
				select {
				case errs <- err:
				default:
				}
			}
		}
	}()
}

// Publish sends a tree to the namespace's service instance. In async mode
// it enqueues (dropping with an error on a full queue) and returns
// immediately.
func (c *Client) Publish(ns Namespace, n *conduit.Node) error {
	c.mu.Lock()
	async := c.async
	c.mu.Unlock()
	if async != nil {
		select {
		case async <- publishReq{ns: ns, node: n}:
			return nil
		default:
			return fmt.Errorf("soma: async publish queue full")
		}
	}
	return c.publishSync(ns, n)
}

// Flush blocks until every publish enqueued before the call has been sent
// — draining the async queue and then the batch coalescer — and returns the
// first error those publishes hit (e.g. ErrServiceStopped when the service
// shut down while they were queued) — a silent drain would let a monitor's
// final batch vanish unnoticed. A no-op in synchronous unbatched mode.
// Callers that queried data right after a final async publish would
// otherwise race the background sender — e.g. a monitor's shutdown
// collection followed by analysis over the same client.
func (c *Client) Flush() error {
	c.mu.Lock()
	async := c.async
	c.mu.Unlock()
	var asyncErr error
	if async != nil {
		done := make(chan error, 1)
		async <- publishReq{flushed: done}
		asyncErr = <-done
	}
	// Drain the coalescer second: the async worker feeds it, so every
	// publish enqueued before this call is now in the batch buffer (or
	// already on the wire) and the synchronous flush covers it.
	var batchErr error
	if co := c.coal.Load(); co != nil {
		batchErr = co.flushNow()
	}
	if asyncErr != nil {
		return asyncErr
	}
	return batchErr
}

// EnableFireAndForget switches Publish to one-way notifications: the client
// never waits for the service's acknowledgment, trading delivery
// confirmation for the lowest possible publish latency — the mode for
// per-iteration application instrumentation on hot paths. Composable with
// EnableAsync (the background goroutine then sends notifications).
func (c *Client) EnableFireAndForget() {
	c.fireAndForget.Store(true)
}

// publishSync sends one publish: through the coalescer when batching is
// enabled (and the server speaks the batch RPC), otherwise directly.
func (c *Client) publishSync(ns Namespace, n *conduit.Node) error {
	if co := c.coal.Load(); co != nil {
		if !c.noBatch.Load() {
			return co.append(ns, n, nil)
		}
		// Old server, fallback latched: entries coalesced before the latch (or
		// still being replayed one by one) must land first, or this publish
		// would overtake them.
		co.flush()
	}
	return c.publishDirect(ns, n)
}

// PublishEncoded sends a pre-encoded tree (Node.EncodeBinary output). A
// high-rate publisher whose tree shape is fixed encodes once and republishes
// the cached bytes, skipping the per-publish encode walk — and, because
// cached frames are flat byte slices, keeping the publisher's working set
// free of pointer-rich trees the garbage collector would have to trace.
// The frame is validated up front; the coalescer retains enc by reference
// until the batch is acknowledged, so the caller must not mutate it.
// Without batching enabled (or against a server predating the batch RPC)
// the frame is decoded and follows the ordinary per-entry path.
func (c *Client) PublishEncoded(ns Namespace, enc []byte) error {
	if err := c.validateEncoded(enc); err != nil {
		return err
	}
	if co := c.coal.Load(); co != nil && !c.noBatch.Load() {
		return co.append(ns, nil, enc)
	}
	n, err := conduit.DecodeBinary(enc)
	if err != nil {
		return err
	}
	return c.publishSync(ns, n)
}

// encSeenMax bounds the validated-frame memo; past it the memo is dropped
// wholesale (entries also pin their frames, so the bound caps retained
// payload bytes too).
const encSeenMax = 1 << 17

// validateEncoded checks a PublishEncoded frame, consulting the memo of
// slices this client has already validated so repeat sends of a cached
// payload skip the wire-format walk.
func (c *Client) validateEncoded(enc []byte) error {
	if len(enc) == 0 {
		return conduit.ValidateBinary(enc)
	}
	k := &enc[0]
	c.encMu.Lock()
	n, ok := c.encSeen[k]
	c.encMu.Unlock()
	if ok && n == len(enc) {
		return nil
	}
	if err := conduit.ValidateBinary(enc); err != nil {
		return err
	}
	c.encMu.Lock()
	if c.encSeen == nil || len(c.encSeen) >= encSeenMax {
		c.encSeen = make(map[*byte]int)
	}
	c.encSeen[k] = len(enc)
	c.encMu.Unlock()
	return nil
}

// publishDirect sends one per-entry publish, degrading into the spill
// buffer (when enabled) on transient transport failures — and routing
// behind any entries already buffered, so redelivery preserves publish
// order.
func (c *Client) publishDirect(ns Namespace, n *conduit.Node) error {
	if sp := c.spill.Load(); sp != nil && sp.pending() > 0 {
		if sp.add(ns, n) {
			return nil
		}
	}
	err := c.sendPublish(ns, n)
	if err == nil {
		return nil
	}
	if sp := c.spill.Load(); sp != nil && mercury.IsTransient(err) {
		if sp.add(ns, n) {
			return nil
		}
	}
	return err
}

// reportAsyncError offers err on Errs without blocking (async mode only).
func (c *Client) reportAsyncError(err error) {
	c.mu.Lock()
	errs := c.Errs
	c.mu.Unlock()
	if errs == nil {
		return
	}
	select {
	case errs <- err:
	default:
	}
}

// sendPublish performs the wire publish with no degradation handling.
func (c *Client) sendPublish(ns Namespace, n *conduit.Node) error {
	// Every publish is the root of a trace: the span's ids travel in the
	// mercury frame header, so the service-side handler and stripe append
	// record child spans of this one (client → wire → stripe append).
	ctx, sp := telemetry.StartSpan(context.Background(), "soma.client.publish")
	// Zero-copy envelope: the published tree is grafted under "data" by
	// reference rather than deep-merged — callers handed it over at Publish
	// and may not mutate it, so encoding can read it in place. The wire
	// buffer is pooled; both transports finish with it before returning.
	req := conduit.NewNode()
	req.SetString("ns", string(ns))
	req.Attach("data", n)
	buf := conduit.GetEncodeBuffer()
	*buf = req.AppendBinary(*buf)
	var err error
	if c.fireAndForget.Load() {
		err = c.ep.Notify(ctx, RPCPublish, *buf)
	} else {
		_, err = c.ep.Call(ctx, RPCPublish, *buf)
	}
	conduit.PutEncodeBuffer(buf)
	if err != nil {
		// A failed publish is an error trace: the tail sampler always keeps
		// those, so the failure is inspectable via soma.trace.get afterwards.
		sp.Fail()
	}
	sp.End()
	if err == nil {
		c.published.Add(1)
	}
	return err
}

// Published returns the number of acknowledged publishes. Leaves are
// counted at send-acknowledgement, not at enqueue: an async or batched
// publish only counts once the service's ack (or the one-way send, in
// fire-and-forget mode) confirms it left, and a spilled entry counts
// exactly once, at successful redelivery. After Flush (and DrainSpill, when
// spill is enabled) the count equals the publishes the service accepted.
func (c *Client) Published() int64 {
	return c.published.Load()
}

// Query fetches the merged subtree at path within ns. The returned tree is
// shared and read-only: repeated queries against an unchanged namespace are
// answered by a tiny delta frame and return the same memoized tree, so
// callers must not modify it. Mutating callers should clone first.
func (c *Client) Query(ns Namespace, path string) (*conduit.Node, error) {
	tree, _, err := c.QueryDelta(ns, path)
	return tree, err
}

// QueryDelta is Query with change detection: the poll carries the memoized
// (epoch, gen) stamp via soma.query.delta, and changed reports whether the
// namespace moved since the previous call for the same (ns, path). When
// changed is false the returned tree is the memoized previous result and the
// poll cost a ~30-byte frame instead of the full tree. Against servers
// predating the delta RPC it degrades to a plain query (changed always
// true).
func (c *Client) QueryDelta(ns Namespace, path string) (tree *conduit.Node, changed bool, err error) {
	if c.noDelta.Load() {
		tree, err = c.queryPlain(ns, path)
		return tree, true, err
	}
	key := string(ns) + "\x00" + path
	c.deltaMu.Lock()
	memo := c.delta[key]
	c.deltaMu.Unlock()
	ctx, sp := telemetry.StartSpan(context.Background(), "soma.client.query")
	defer func() {
		if err != nil {
			sp.Fail()
		}
		sp.End()
	}()
	req := conduit.NewNode()
	req.SetString("ns", string(ns))
	req.SetString("path", path)
	if memo != nil {
		req.SetInt("epoch", memo.epoch)
		req.SetInt("gen", memo.gen)
	}
	buf := conduit.GetEncodeBuffer()
	*buf = req.AppendBinary(*buf)
	out, err := c.ep.Call(ctx, c.queryDeltaRPC(), *buf)
	conduit.PutEncodeBuffer(buf)
	if err != nil {
		if errors.Is(err, mercury.ErrUnknownRPC) {
			c.noDelta.Store(true)
			tree, err = c.queryPlain(ns, path)
			return tree, true, err
		}
		return nil, false, err
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return nil, false, err
	}
	epoch, _ := resp.Int("epoch")
	gen, _ := resp.Int("gen")
	if unch, _ := resp.Bool("unchanged"); unch {
		// The stamp the service matched is the one this call sent, so the
		// memo pointer read above is exactly the state the service holds.
		if memo != nil && memo.epoch == epoch && memo.gen == gen {
			c.deltaUnchanged.Add(1)
			if saved := memo.frameLen - len(out); saved > 0 {
				c.deltaBytesSaved.Add(int64(saved))
			}
			return memo.tree, false, nil
		}
		// Defensive: an "unchanged" for a stamp this client no longer holds;
		// resync with a plain query rather than trust it.
		tree, err = c.queryPlain(ns, path)
		return tree, true, err
	}
	data, ok := resp.Get("data")
	if !ok {
		data = conduit.NewNode()
	}
	if epoch != 0 {
		c.deltaMu.Lock()
		if c.delta == nil {
			c.delta = make(map[string]*deltaMemo, 4)
		}
		if _, exists := c.delta[key]; exists || len(c.delta) < maxDeltaMemos {
			c.delta[key] = &deltaMemo{epoch: epoch, gen: gen, tree: data, frameLen: len(out)}
		}
		c.deltaMu.Unlock()
	}
	return data, true, nil
}

// DeltaStatsSnapshot summarizes the client's delta-query savings.
type DeltaStatsSnapshot struct {
	// Unchanged counts polls the service answered with the tiny
	// "unchanged" frame.
	Unchanged int64
	// BytesSaved totals the wire bytes avoided by those answers versus
	// re-sending the memoized full frames.
	BytesSaved int64
}

// DeltaStats reports how much poll traffic delta queries have collapsed.
func (c *Client) DeltaStats() DeltaStatsSnapshot {
	return DeltaStatsSnapshot{
		Unchanged:  c.deltaUnchanged.Load(),
		BytesSaved: c.deltaBytesSaved.Load(),
	}
}

func (c *Client) queryRPC() string {
	if c.localRPCs {
		return RPCQueryLocal
	}
	return RPCQuery
}

func (c *Client) queryDeltaRPC() string {
	if c.localRPCs {
		return RPCQueryDeltaLocal
	}
	return RPCQueryDelta
}

// queryPlain is the pre-delta wire query: always fetches the full tree.
func (c *Client) queryPlain(ns Namespace, path string) (tree *conduit.Node, err error) {
	ctx, sp := telemetry.StartSpan(context.Background(), "soma.client.query")
	defer func() {
		if err != nil {
			sp.Fail()
		}
		sp.End()
	}()
	req := conduit.NewNode()
	req.SetString("ns", string(ns))
	req.SetString("path", path)
	buf := conduit.GetEncodeBuffer()
	*buf = req.AppendBinary(*buf)
	out, err := c.ep.Call(ctx, c.queryRPC(), *buf)
	conduit.PutEncodeBuffer(buf)
	if err != nil {
		return nil, err
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return nil, err
	}
	data, ok := resp.Get("data")
	if !ok {
		return conduit.NewNode(), nil
	}
	return data, nil
}

// Stats fetches per-instance service statistics.
func (c *Client) Stats() (map[Namespace]InstanceStats, error) {
	out, err := c.ep.Call(context.Background(), RPCStats, conduit.NewNode().EncodeBinary())
	if err != nil {
		return nil, err
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return nil, err
	}
	stats := map[Namespace]InstanceStats{}
	for _, nsName := range resp.ChildNames() {
		sub := resp.Child(nsName)
		st := InstanceStats{Namespace: Namespace(nsName)}
		if v, ok := sub.Int("ranks"); ok {
			st.Ranks = int(v)
		}
		if v, ok := sub.Int("stripes"); ok {
			st.Stripes = int(v)
		}
		st.Publishes, _ = sub.Int("publishes")
		st.Leaves, _ = sub.Int("leaves")
		st.BytesIn, _ = sub.Int("bytes_in")
		st.LastTime, _ = sub.Float("last_time")
		stats[st.Namespace] = st
	}
	return stats, nil
}

// Telemetry fetches the service process's full telemetry registry snapshot
// (RPC latency histograms, queue gauges, counters, recent spans) via the
// soma.telemetry RPC.
func (c *Client) Telemetry() (*telemetry.Snapshot, error) {
	out, err := c.ep.Call(context.Background(), RPCTelemetry, conduit.NewNode().EncodeBinary())
	if err != nil {
		return nil, err
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return nil, err
	}
	return DecodeTelemetry(resp), nil
}

// SelectMatch is one result of a pattern select.
type SelectMatch struct {
	Path string
	// Value holds the leaf's numeric value; HasValue is false for
	// non-numeric leaves.
	Value    float64
	HasValue bool
}

// Select returns the leaf paths (and numeric values) matching a glob
// pattern in a namespace, evaluated service-side.
func (c *Client) Select(ns Namespace, pattern string) ([]SelectMatch, error) {
	req := conduit.NewNode()
	req.SetString("ns", string(ns))
	req.SetString("pattern", pattern)
	out, err := c.ep.Call(context.Background(), RPCSelect, req.EncodeBinary())
	if err != nil {
		return nil, err
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return nil, err
	}
	matches, ok := resp.Get("matches")
	if !ok {
		return nil, nil
	}
	var result []SelectMatch
	for _, name := range matches.ChildNames() {
		sub := matches.Child(name)
		m := SelectMatch{}
		m.Path, _ = sub.StringVal("path")
		m.Value, m.HasValue = sub.Float("value")
		result = append(result, m)
	}
	return result, nil
}

// Reset asks the service to discard a namespace's stored data (after a
// snapshot, at phase boundaries).
func (c *Client) Reset(ns Namespace) error {
	req := conduit.NewNode()
	req.SetString("ns", string(ns))
	_, err := c.ep.Call(context.Background(), RPCReset, req.EncodeBinary())
	return err
}

// Shutdown asks the service to stop accepting data.
func (c *Client) Shutdown() error {
	_, err := c.ep.Call(context.Background(), RPCShutdown, conduit.NewNode().EncodeBinary())
	return err
}

// Close flushes the async queue (if any), stops spill redelivery, and
// releases the endpoint. Buffered spill entries are NOT delivered — call
// DrainSpill first when they must not be lost.
func (c *Client) Close() error {
	c.mu.Lock()
	async := c.async
	c.async = nil
	c.mu.Unlock()
	if async != nil {
		close(async)
		c.wg.Wait()
	}
	// Stop the coalescer (final flush) before tearing the endpoint down so
	// buffered entries get their delivery attempt.
	if co := c.coal.Load(); co != nil {
		co.shutdown()
	}
	if sp := c.spill.Load(); sp != nil {
		sp.shutdown()
	}
	return c.ep.Close()
}
