package core

import (
	"context"
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
// Publishing is one pipeline with two producers, both fed encoded tree
// frames: Publish encodes its tree and joins PublishEncoded. Unbatched, a
// frame is wrapped in a {ns, data} envelope and handed to deliver as a
// soma.publish frame, returning the service's verdict. After EnableBatch it
// is appended to the coalescer instead, whose flush hands deliver a
// soma.publish.batch frame. deliver is the only place the degradation policy
// lives (see spill.go for the queue it degrades into).
//
// A published tree is encoded before Publish returns and never retained.
type Client struct {
	ep *mercury.Endpoint
	// addr, engine and policy remember how the endpoint was resolved so
	// subscriptions can redial after a connection loss (see subscribe.go).
	addr   string
	engine *mercury.Engine
	policy *mercury.CallPolicy

	// spill is the graceful-degradation queue (nil until EnableSpill); see
	// spill.go.
	spill atomic.Pointer[spillState]

	// coal is the publish coalescer (nil until EnableBatch); see batch.go.
	coal atomic.Pointer[coalescer]

	// published counts acknowledged publishes.
	published atomic.Int64

	// mu guards pendErr, the first failure since the last Flush among the
	// frames no Publish call could report: a coalesced batch the service
	// rejected, a spilled frame that redelivery had to drop.
	mu      sync.Mutex
	pendErr error

	// encSeen memoizes frames PublishEncoded has already validated, keyed
	// by first-byte pointer → frame length. A cached-payload publisher
	// re-sends the same immutable slices millions of times; validating
	// each slice once instead of per call takes ValidateBinary off the
	// hot path. Sound because the PublishEncoded contract forbids mutating
	// enc after the call. Bounded: reset wholesale past encSeenMax entries.
	encMu   sync.Mutex
	encSeen map[*byte]int

	// delta is the per-endpoint generation memo behind QueryDelta: the last
	// tree per (ns, path) with the (epoch, gen) stamp the service sent
	// alongside it. When a later poll's stamp still matches, the service
	// answers with a tiny "unchanged" frame and the memoized tree is reused;
	// when only a few children changed, it sends those and they are grafted
	// onto a copy of the memoized tree.
	deltaMu sync.Mutex
	delta   map[string]*deltaMemo
	// Delta accounting for DeltaStats: polls answered "unchanged", polls
	// answered with a patch, and the wire bytes those answers saved versus
	// re-sending the memoized frame.
	deltaUnchanged  atomic.Int64
	deltaPartial    atomic.Int64
	deltaBytesSaved atomic.Int64
}

// deltaMemo is one (ns, path) entry of the client's generation memo. It is
// replaced, never mutated: callers share its tree.
type deltaMemo struct {
	epoch, gen int64
	tree       *conduit.Node
	frameLen   int // encoded size of the last full response, for bytes-saved accounting
}

// graft applies a partial delta answer resp — {epoch, gen, base, count,
// patch} — to the memo and returns the tree it stands for: the memoized tree
// with patch's children replacing the ones of the same name or appended. ok
// is false when the answer does not apply to this memo (another epoch or
// base, a memo or patch that is not an object) or the result does not hold
// count children; the memo is never modified.
func (m *deltaMemo) graft(resp *conduit.Node) (tree *conduit.Node, ok bool) {
	epoch, _ := resp.Int("epoch")
	base, hasBase := resp.Int("base")
	count, hasCount := resp.Int("count")
	patch, hasPatch := resp.Get("patch")
	if !hasBase || !hasCount || !hasPatch || epoch != m.epoch || base != m.gen ||
		m.tree.Kind() != conduit.KindObject || patch.Kind() != conduit.KindObject {
		return nil, false
	}
	tree = conduit.Graft(m.tree, patch)
	if int64(tree.NumChildren()) != count {
		return nil, false
	}
	return tree, true
}

// maxDeltaMemos bounds the generation memo; queries for paths beyond the cap
// still work, they just never get the tiny-frame fast path.
const maxDeltaMemos = 256

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

// Publish sends a tree to the namespace's service instance. Unbatched it
// returns once the service has acknowledged (or, with EnableSpill, once a
// transient failure has been absorbed into the spill queue); after
// EnableBatch it enqueues into the coalescer and returns immediately, the
// delivery verdict surfacing through Flush. An unknown namespace is rejected
// here, before anything is enqueued: the service rejects a batch frame
// atomically, so one bad entry would void its valid neighbours.
func (c *Client) Publish(ns Namespace, n *conduit.Node) error {
	if n == nil {
		return errNilTree
	}
	// A frame this process just encoded needs no validation; both producers
	// copy what they keep, so the buffer goes back to the pool on return.
	buf := conduit.GetEncodeBuffer()
	*buf = n.AppendBinary(*buf)
	err := c.publish(ns, *buf)
	conduit.PutEncodeBuffer(buf)
	return err
}

// PublishEncoded sends a pre-encoded tree (Node.EncodeBinary output). A
// high-rate publisher whose tree shape is fixed encodes once and republishes
// the cached bytes, skipping the per-publish encode walk — and, because
// cached frames are flat byte slices, keeping the publisher's working set
// free of pointer-rich trees the garbage collector would have to trace.
// The frame is validated up front and copied into the outgoing frame before
// the call returns; the caller must not mutate enc afterwards (the
// validation memo remembers it by address).
func (c *Client) PublishEncoded(ns Namespace, enc []byte) error {
	if err := c.validateEncoded(enc); err != nil {
		return err
	}
	return c.publish(ns, enc)
}

// publish is the producer both entry points share; enc is a valid tree frame.
func (c *Client) publish(ns Namespace, enc []byte) error {
	if !ns.Valid() {
		return &ErrUnknownNamespace{NS: ns}
	}
	if co := c.coal.Load(); co != nil {
		return co.append(ns, enc)
	}
	return c.publishDirect(ns, enc)
}

// publishDirect is the unbatched producer: one {ns, data} envelope, built in
// a pooled buffer and delivered as a soma.publish frame of one leaf.
func (c *Client) publishDirect(ns Namespace, enc []byte) error {
	buf := conduit.GetEncodeBuffer()
	*buf = appendPublishEnvelope(*buf, ns, enc)
	// The transport and the spill queue both copy what they keep, so the
	// buffer goes back to the pool as soon as deliver returns.
	err := c.deliver(RPCPublish, *buf, 1)
	conduit.PutEncodeBuffer(buf)
	return err
}

// appendPublishEnvelope appends the {ns, data} request frame of a single
// publish: the tree frame enc, minus its 4-byte magic, is spliced in raw where
// the encoding of an empty data child has its single kind byte.
func appendPublishEnvelope(dst []byte, ns Namespace, enc []byte) []byte {
	req := conduit.NewNode()
	req.SetString("ns", string(ns))
	req.Fetch("data")
	dst = req.AppendBinary(dst)
	return append(dst[:len(dst)-1], enc[4:]...)
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

// deliver is the client's one outbound primitive: every publish frame —
// a soma.publish envelope from publishDirect, a soma.publish.batch frame
// from the coalescer's flush — leaves through it, and it is the only place
// the degradation policy lives. While the spill queue holds frames a new one
// queues behind them, so redelivery preserves publish order; otherwise the
// frame is sent and acknowledged, and only a transient transport failure
// spills it. A definitive verdict — handler error, stopped service — is
// returned: redelivering it would loop forever. leaves is the number of
// publishes the frame carries.
func (c *Client) deliver(rpc string, frame []byte, leaves int) error {
	sp := c.spill.Load()
	if sp != nil && sp.pending() > 0 && sp.add(rpc, frame, leaves) {
		return nil
	}
	transient, err := c.send(rpc, frame, leaves)
	if transient && sp != nil && sp.add(rpc, frame, leaves) {
		return nil
	}
	return err
}

// send performs one acknowledged wire publish with no degradation handling,
// counts the frame's leaves in Published at acknowledgement, and classifies
// a failure: transient means the transport failed before any verdict
// (mercury.IsTransient) and the same frame is worth sending again. Spill
// redelivery calls it directly, so a failed redelivery never re-spills.
func (c *Client) send(rpc string, frame []byte, leaves int) (transient bool, err error) {
	// Every publish is the root of a trace: the span's ids travel in the
	// mercury frame header, so the service-side handler and stripe append
	// record child spans of this one (client → wire → stripe append).
	name := "soma.client.publish"
	if rpc == RPCPublishBatch {
		name = "soma.client.publish.batch"
	}
	ctx, sp := telemetry.StartSpan(context.Background(), name)
	_, err = c.ep.Call(ctx, rpc, frame)
	if err != nil {
		// A failed publish is an error trace: the tail sampler always keeps
		// those, so the failure is inspectable via soma.trace.get afterwards.
		sp.Fail()
		sp.End()
		return mercury.IsTransient(err), err
	}
	sp.End()
	c.published.Add(int64(leaves))
	return false, nil
}

// fail records a delivery failure no Publish call is left to report; the
// next Flush returns the first one.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.pendErr == nil {
		c.pendErr = err
	}
	c.mu.Unlock()
}

// Flush blocks until every publish enqueued before the call has had its
// delivery attempt — draining the batch coalescer — and returns the first
// failure since the previous Flush among frames no Publish call reported
// (e.g. ErrServiceStopped when the service shut down under a coalesced
// batch, or a spilled frame redelivery had to drop): a silent drain would
// let a monitor's final batch vanish unnoticed. Unbatched publishes report
// their own verdict, so without EnableBatch there is nothing to drain.
// Callers that query right after a final batched publish would otherwise
// race the background flusher — e.g. a monitor's shutdown collection
// followed by analysis over the same client.
func (c *Client) Flush() error {
	if co := c.coal.Load(); co != nil {
		co.flush()
	}
	c.mu.Lock()
	err := c.pendErr
	c.pendErr = nil
	c.mu.Unlock()
	return err
}

// Published returns the number of acknowledged publishes. Leaves are
// counted at send-acknowledgement, not at enqueue: a batched publish only
// counts once the service's ack confirms its frame, and a spilled frame's
// leaves count exactly once, at successful redelivery. After Flush (and
// DrainSpill, when spill is enabled) the count equals the publishes the
// service accepted.
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
// poll cost a ~30-byte frame instead of the full tree. When only a few of the
// subtree's direct children were rewritten or added, only those cross the
// wire and are grafted onto a copy of the memoized tree; a patch that does
// not fit the memo drops it and re-polls for the full tree.
func (c *Client) QueryDelta(ns Namespace, path string) (tree *conduit.Node, changed bool, err error) {
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
		req.SetBool("patch", true)
	}
	buf := conduit.GetEncodeBuffer()
	*buf = req.AppendBinary(*buf)
	out, err := c.ep.Call(ctx, RPCQueryDelta, *buf)
	conduit.PutEncodeBuffer(buf)
	if err != nil {
		return nil, false, err
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return nil, false, err
	}
	epoch, _ := resp.Int("epoch")
	gen, _ := resp.Int("gen")
	if unch, _ := resp.Bool("unchanged"); unch {
		if memo == nil {
			return nil, false, fmt.Errorf("soma: query %s: service answered \"unchanged\" to a poll that carried no stamp", ns)
		}
		// The stamp the service matched is the one this call sent, so the
		// memo pointer read above is exactly the state the service holds.
		if memo.epoch == epoch && memo.gen == gen {
			c.deltaUnchanged.Add(1)
			if saved := memo.frameLen - len(out); saved > 0 {
				c.deltaBytesSaved.Add(int64(saved))
			}
			return memo.tree, false, nil
		}
		// Defensive: an "unchanged" for a stamp this client no longer holds.
		return c.resync(ns, path, key)
	}
	if resp.Has("patch") {
		if memo == nil {
			return nil, false, fmt.Errorf("soma: query %s: service answered a patch to a poll that carried no stamp", ns)
		}
		tree, ok := memo.graft(resp)
		if !ok {
			// Defensive: a patch that does not apply to the memo it was
			// asked against.
			return c.resync(ns, path, key)
		}
		c.deltaPartial.Add(1)
		if saved := memo.frameLen - len(out); saved > 0 {
			c.deltaBytesSaved.Add(int64(saved))
		}
		c.remember(key, &deltaMemo{epoch: epoch, gen: gen, tree: tree, frameLen: memo.frameLen})
		return tree, true, nil
	}
	data, ok := resp.Get("data")
	if !ok {
		data = conduit.NewNode()
	}
	if epoch != 0 {
		c.remember(key, &deltaMemo{epoch: epoch, gen: gen, tree: data, frameLen: len(out)})
	}
	return data, true, nil
}

// resync drops the memo for key and re-polls with a zero stamp: what
// QueryDelta does rather than trust an answer that does not fit its memo.
func (c *Client) resync(ns Namespace, path, key string) (*conduit.Node, bool, error) {
	c.deltaMu.Lock()
	delete(c.delta, key)
	c.deltaMu.Unlock()
	return c.QueryDelta(ns, path)
}

// remember stores m as key's memo, unless the memo is full.
func (c *Client) remember(key string, m *deltaMemo) {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	if c.delta == nil {
		c.delta = make(map[string]*deltaMemo, 4)
	}
	if _, exists := c.delta[key]; exists || len(c.delta) < maxDeltaMemos {
		c.delta[key] = m
	}
}

// DeltaStatsSnapshot summarizes the client's delta-query savings.
type DeltaStatsSnapshot struct {
	// Unchanged counts polls the service answered with the tiny
	// "unchanged" frame.
	Unchanged int64
	// Partial counts polls the service answered with only the children that
	// changed, grafted onto the memoized tree.
	Partial int64
	// BytesSaved totals the wire bytes avoided by those answers versus
	// re-sending the last full frame.
	BytesSaved int64
}

// DeltaStats reports how much poll traffic delta queries have collapsed.
func (c *Client) DeltaStats() DeltaStatsSnapshot {
	return DeltaStatsSnapshot{
		Unchanged:  c.deltaUnchanged.Load(),
		Partial:    c.deltaPartial.Load(),
		BytesSaved: c.deltaBytesSaved.Load(),
	}
}

// call is the control-plane round trip every stub below shares: req goes out
// through conduit.Marshal (nil = the empty tree) and the answer comes back
// through conduit.Unmarshal into resp (nil = discarded). publish*, query* and
// a single-key Series stay out of it: they are laid out by hand on purpose.
func (c *Client) call(ctx context.Context, rpc string, req, resp any) error {
	out, err := callTree(ctx, c.ep, rpc, conduit.Marshal(req))
	if err != nil || resp == nil {
		return err
	}
	return conduit.Unmarshal(out, resp)
}

// callTree sends the tree req (nil = the empty tree) over ep and decodes the
// answer: call's round trip, and that of the hand-laid stubs (a single-key
// Series, a subscription over its redialled endpoint).
func callTree(ctx context.Context, ep *mercury.Endpoint, rpc string, req *conduit.Node) (*conduit.Node, error) {
	payload := okFrame
	if req != nil {
		payload = req.EncodeBinary()
	}
	out, err := ep.Call(ctx, rpc, payload)
	if err != nil {
		return nil, err
	}
	return conduit.DecodeBinary(out)
}

// Stats fetches per-instance service statistics.
func (c *Client) Stats() (map[Namespace]InstanceStats, error) {
	var stats map[Namespace]InstanceStats
	if err := c.call(context.Background(), RPCStats, nil, &stats); err != nil {
		return nil, err
	}
	for ns, st := range stats {
		st.Namespace = ns
		stats[ns] = st
	}
	return stats, nil
}

// SelectMatch is one result of a pattern select; soma.select answers a list
// of them.
type SelectMatch struct {
	Path string `conduit:"path"`
	// Value holds the leaf's numeric value; HasValue is false for
	// non-numeric leaves.
	Value    float64 `conduit:"value"`
	HasValue bool    `conduit:"has_value"`
}

// Select returns the leaf paths (and numeric values) matching a glob
// pattern in a namespace, evaluated service-side.
func (c *Client) Select(ns Namespace, pattern string) ([]SelectMatch, error) {
	var matches []SelectMatch
	if err := c.call(context.Background(), RPCSelect, nsReq{NS: ns, Pattern: pattern}, &matches); err != nil {
		return nil, err
	}
	return matches, nil
}

// Reset asks the service to discard a namespace's stored data (after a
// snapshot, at phase boundaries).
func (c *Client) Reset(ns Namespace) error {
	return c.call(context.Background(), RPCReset, nsReq{NS: ns}, nil)
}

// Shutdown asks the service to stop accepting data.
func (c *Client) Shutdown() error {
	return c.call(context.Background(), RPCShutdown, nil, nil)
}

// Close gives the coalescer's pending batch its final delivery attempt,
// stops spill redelivery, and releases the endpoint. Frames still in the
// spill queue are NOT delivered — call DrainSpill first when they must not
// be lost.
func (c *Client) Close() error {
	if co := c.coal.Load(); co != nil {
		co.shutdown()
	}
	if sp := c.spill.Load(); sp != nil {
		sp.shutdown()
	}
	return c.ep.Close()
}
