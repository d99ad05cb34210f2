package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/cluster"
	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Sharded multi-instance clustering: consistent-hash placement of published
// leaves across somad instances (internal/cluster), membership via a static
// seed list plus gossip-style liveness over soma.peer.ping, scatter-gather
// reads, and ring-epoch-stamped handoff on membership change.
//
// The correctness invariant is deliberately asymmetric:
//
//   - WRITES are placed: a publish whose shard key is owned by a peer is
//     forwarded there (one hop, soma.publish.local), falling back to local
//     ingest when the owner is unreachable — an acked publish is never
//     dropped because of cluster state.
//   - READS scatter: soma.query / soma.series / soma.alert.list fan out to
//     every live member and merge, so data is found wherever it was ingested.
//     Placement is a load-balancing optimization, never a correctness
//     requirement — which is what makes rebalance safe to interrupt (the
//     sever-mid-rebalance chaos scenario) without a loss window.
//
// Handoff copies mis-placed leaves to their owner after a membership change;
// frames are stamped with the sender's ring epoch and rejected when it does
// not match the receiver's, so two diverged views never exchange data placed
// by different rings — the sender retries after gossip converges. Handed-off
// leaves are not deleted at the source (in-memory stores have no tombstones);
// the scatter merge deduplicates by path.

var (
	telPeersAlive      = telemetry.Default().Gauge("cluster.peers.alive")
	telPeersKnown      = telemetry.Default().Gauge("cluster.peers.known")
	telRingChanges     = telemetry.Default().Counter("cluster.ring.changes")
	telForwards        = telemetry.Default().Counter("cluster.publish.forwards")
	telForwardFallback = telemetry.Default().Counter("cluster.publish.forward_fallbacks")
	telHandoffLeaves   = telemetry.Default().Counter("cluster.handoff.leaves_sent")
	telHandoffRecv     = telemetry.Default().Counter("cluster.handoff.frames_received")
	telHandoffStale    = telemetry.Default().Counter("cluster.handoff.rejected_stale")
	telScatterFanouts  = telemetry.Default().Counter("cluster.scatter.fanouts")
	telScatterLatency  = telemetry.Default().Histogram("cluster.scatter.latency")
	// telScatterMerge times the union stage of a scattered soma.query alone
	// (cluster.scatter.latency is peer wait plus merge); telScatterBytes
	// counts the peer response bytes scattered reads gathered.
	telScatterMerge = telemetry.Default().Histogram("cluster.scatter.merge")
	telScatterBytes = telemetry.Default().Counter("cluster.scatter.bytes")
)

// Cluster RPC names. The ".local" variants answer from this instance's own
// state only — they are what scatter-gather fans out to (and what a routing
// client polls per shard), so a scattered read can never recurse.
const (
	RPCPeerPing        = "soma.peer.ping"
	RPCRing            = "soma.ring"
	RPCHandoff         = "soma.handoff"
	RPCPublishLocal    = "soma.publish.local"
	RPCQueryLocal      = "soma.query.local"
	RPCQueryDeltaLocal = "soma.query.delta.local"
	RPCSeriesLocal     = "soma.series.local"
	RPCAlertListLocal  = "soma.alert.list.local"
)

// ErrStaleRingEpoch rejects a handoff stamped by a ring this instance does
// not currently hold.
var ErrStaleRingEpoch = errors.New("soma: handoff ring epoch is stale")

// ClusterConfig configures a service's membership in a sharded cluster.
type ClusterConfig struct {
	// SelfID labels this instance in health panels; defaults to its address.
	SelfID string
	// Peers is the static seed list: addresses of other instances (self is
	// filtered out). Further members are learned by gossip.
	Peers []string
	// Vnodes per member on the hash ring; 0 = cluster.DefaultVnodes. Every
	// member must agree — the value is gossiped in soma.ring so routing
	// clients build the identical ring.
	Vnodes int
	// PingInterval is the liveness cadence; 0 = 250ms.
	PingInterval time.Duration
	// PingMisses consecutive failures mark a peer dead; 0 = 3.
	PingMisses int
	// ScatterParallel bounds concurrent peer calls per scattered read;
	// 0 = 4.
	ScatterParallel int
	// Policy overrides the peer call policy (forwards, scatter, handoff,
	// pings). nil = peerCallPolicy().
	Policy *mercury.CallPolicy
}

func (c *ClusterConfig) defaults() {
	if c.PingInterval <= 0 {
		c.PingInterval = 250 * time.Millisecond
	}
	if c.ScatterParallel <= 0 {
		c.ScatterParallel = 4
	}
	if c.Policy == nil {
		c.Policy = peerCallPolicy()
	}
}

// peerCallPolicy is the default policy for instance-to-instance calls:
// short attempts with one retry (the liveness tracker, not the transport,
// decides when a peer is gone) and a per-endpoint breaker so a severed peer
// fails fast instead of holding scattered reads hostage. Peer RPCs are all
// safe to re-send: reads trivially, forwards and handoffs because ingest is
// a last-writer-wins merge of identical payloads.
func peerCallPolicy() *mercury.CallPolicy {
	return &mercury.CallPolicy{
		ConnectTimeout:   time.Second,
		AttemptTimeout:   500 * time.Millisecond,
		MaxRetries:       1,
		Backoff:          mercury.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		Idempotent:       func(string) bool { return true },
		FailureThreshold: 4,
		OpenFor:          200 * time.Millisecond,
	}
}

// svcCluster is a Service's cluster runtime: tracker + ring, cached peer
// endpoints, and the liveness/rebalance loops.
type svcCluster struct {
	svc     *Service
	cfg     ClusterConfig
	self    cluster.Member
	tracker *cluster.Tracker

	epMu sync.Mutex
	eps  map[string]*mercury.Endpoint

	kick chan struct{} // rebalance trigger (membership changed)
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// JoinCluster turns a listening service into a cluster member: it seeds the
// membership tracker, starts the liveness pinger and the rebalance loop, and
// flips publishes/reads into placed/scattered mode. Call it once, after
// Listen (peers dial back the listen address).
func (s *Service) JoinCluster(cfg ClusterConfig) error {
	addrs := s.Addrs()
	if len(addrs) == 0 {
		return errors.New("soma: JoinCluster before Listen")
	}
	if s.cfg.Shared {
		return errors.New("soma: clustering is not supported with a shared instance")
	}
	if s.cl.Load() != nil {
		return errors.New("soma: already clustered")
	}
	cfg.defaults()
	self := cluster.Member{ID: cfg.SelfID, Addr: addrs[0]}
	cl := &svcCluster{
		svc:     s,
		cfg:     cfg,
		self:    self,
		tracker: cluster.NewTracker(self, cfg.Vnodes, cfg.PingMisses),
		eps:     map[string]*mercury.Endpoint{},
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	cl.self = cl.tracker.Self() // ID defaulted to addr by the tracker
	for _, p := range cfg.Peers {
		cl.tracker.Add(cluster.Member{Addr: p})
	}
	if !s.cl.CompareAndSwap(nil, cl) {
		return errors.New("soma: already clustered")
	}
	cl.updateGauges()
	cl.wg.Add(2)
	go cl.pingLoop()
	go cl.rebalanceLoop()
	return nil
}

// ClusterRing reports the current ring epoch and live member addresses
// (nil ring when the service is not clustered).
func (s *Service) ClusterRing() (epoch uint64, members []cluster.Member) {
	cl := s.cl.Load()
	if cl == nil {
		return 0, nil
	}
	ring := cl.tracker.Ring()
	return ring.Epoch(), ring.Members()
}

// shutdown stops the cluster loops; called from Service.Close before the
// engine closes so in-flight peer calls get their cancellation from the
// engine teardown, not the other way around.
func (cl *svcCluster) shutdown() {
	cl.once.Do(func() { close(cl.stop) })
	cl.wg.Wait()
}

// active reports whether scattered/placed mode is on: at least one live
// peer besides self.
func (cl *svcCluster) active() bool {
	return cl.tracker.Ring().Len() >= 2
}

func (cl *svcCluster) endpoint(addr string) (*mercury.Endpoint, error) {
	cl.epMu.Lock()
	defer cl.epMu.Unlock()
	if ep := cl.eps[addr]; ep != nil {
		return ep, nil
	}
	ep, err := cl.svc.engine.LookupPolicy(addr, cl.cfg.Policy)
	if err != nil {
		return nil, err
	}
	cl.eps[addr] = ep
	return ep, nil
}

// peerAddrs returns the live peer addresses (ring members minus self),
// sorted — the deterministic scatter/merge order.
func (cl *svcCluster) peerAddrs() []string {
	members := cl.tracker.Ring().Members()
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m.Addr != cl.self.Addr {
			out = append(out, m.Addr)
		}
	}
	return out // ring members are already sorted by address
}

func (cl *svcCluster) updateGauges() {
	peers, alive := cl.tracker.Snapshot()
	telPeersKnown.Set(int64(len(peers) + 1))
	telPeersAlive.Set(int64(alive))
}

func (cl *svcCluster) kickRebalance() {
	select {
	case cl.kick <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------------
// Liveness: the ping loop.

func (cl *svcCluster) pingLoop() {
	defer cl.wg.Done()
	tick := time.NewTicker(cl.cfg.PingInterval)
	defer tick.Stop()
	for {
		select {
		case <-cl.stop:
			return
		case <-tick.C:
		}
		peers, _ := cl.tracker.Snapshot()
		changed := atomic.Bool{}
		var wg sync.WaitGroup
		for _, p := range peers {
			wg.Add(1)
			go func(m cluster.Member) {
				defer wg.Done()
				if cl.pingOne(m) {
					changed.Store(true)
				}
			}(p.Member)
		}
		wg.Wait()
		cl.updateGauges()
		if changed.Load() {
			telRingChanges.Inc()
			cl.kickRebalance()
		}
	}
}

// pingOne exchanges one soma.peer.ping with a peer and folds the outcome
// (plus any gossiped members) into the tracker. Returns true when the alive
// set changed.
func (cl *svcCluster) pingOne(m cluster.Member) bool {
	ep, err := cl.endpoint(m.Addr)
	if err != nil {
		return cl.tracker.ReportFailure(m.Addr)
	}
	req := conduit.NewNode()
	req.SetString("addr", cl.self.Addr)
	req.SetString("id", cl.self.ID)
	req.SetInt("epoch", int64(cl.tracker.Ring().Epoch()))
	timeout := 2 * cl.cfg.PingInterval
	if timeout < 500*time.Millisecond {
		timeout = 500 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	out, err := ep.Call(ctx, RPCPeerPing, req.EncodeBinary())
	cancel()
	if err != nil {
		return cl.tracker.ReportFailure(m.Addr)
	}
	resp, err := conduit.DecodeBinary(out)
	if err != nil {
		return cl.tracker.ReportFailure(m.Addr)
	}
	return cl.tracker.ReportSuccess(m.Addr, decodeRingMembers(resp))
}

// ringFrame encodes this instance's membership view: the ring epoch, the
// vnode count (so routing clients build the identical ring), and the live
// members. soma.peer.ping and soma.ring both answer with it.
func (cl *svcCluster) ringFrame() []byte {
	ring := cl.tracker.Ring()
	resp := conduit.NewNode()
	resp.SetInt("epoch", int64(ring.Epoch()))
	resp.SetInt("vnodes", int64(cl.vnodes()))
	resp.SetString("self", cl.self.Addr)
	for i, m := range ring.Members() {
		base := fmt.Sprintf("members/%03d", i)
		resp.SetString(base+"/addr", m.Addr)
		resp.SetString(base+"/id", m.ID)
	}
	return resp.EncodeBinary()
}

func (cl *svcCluster) vnodes() int {
	if cl.cfg.Vnodes > 0 {
		return cl.cfg.Vnodes
	}
	return cluster.DefaultVnodes
}

func decodeRingMembers(resp *conduit.Node) []cluster.Member {
	list, ok := resp.Get("members")
	if !ok {
		return nil
	}
	var out []cluster.Member
	for _, name := range list.ChildNames() {
		sub := list.Child(name)
		m := cluster.Member{}
		m.Addr, _ = sub.StringVal("addr")
		m.ID, _ = sub.StringVal("id")
		if m.Addr != "" {
			out = append(out, m)
		}
	}
	return out
}

// handlePeerPing serves liveness probes: hearing from a peer proves it
// alive (and may introduce it), and the response gossips this instance's
// own membership view back.
func (s *Service) handlePeerPing(_ context.Context, payload []byte) ([]byte, error) {
	cl := s.cl.Load()
	if cl == nil {
		return nil, errors.New("soma: not clustered")
	}
	req, err := conduit.DecodeBinary(payload)
	if err != nil {
		return nil, err
	}
	addr, _ := req.StringVal("addr")
	id, _ := req.StringVal("id")
	if addr != "" {
		added := cl.tracker.Add(cluster.Member{ID: id, Addr: addr})
		revived := cl.tracker.ReportSuccess(addr, nil)
		if added || revived {
			cl.updateGauges()
			telRingChanges.Inc()
			cl.kickRebalance()
		}
	}
	return cl.ringFrame(), nil
}

// handleRing serves the membership view to routing clients and the gateway.
// An unclustered service answers {epoch: 0} — callers fall back to treating
// it as a cluster of one.
func (s *Service) handleRing(_ context.Context, _ []byte) ([]byte, error) {
	cl := s.cl.Load()
	if cl == nil {
		resp := conduit.NewNode()
		resp.SetInt("epoch", 0)
		return resp.EncodeBinary(), nil
	}
	return cl.ringFrame(), nil
}

// ---------------------------------------------------------------------------
// Write placement: ownership check + one-hop forward.

// firstLeafPath returns the publish tree's first leaf path — the shard
// routing key. Multi-leaf publishes route as a unit by their first leaf.
func firstLeafPath(n *conduit.Node) string {
	var path string
	n.Walk(func(p string, _ *conduit.Node) bool {
		path = p
		return false
	})
	return path
}

// forwardPublish routes one publish to the peer owning its shard key — leaf
// is the publish's first leaf path. A wire publish passes the {ns, data}
// envelope it arrived as in payload and it goes out verbatim; an in-process
// one passes its tree in n (payload nil) and the envelope is encoded only
// once a forward is certain. done=true means the owner accepted (or
// definitively rejected) it and err is the final answer; done=false means
// the caller should ingest locally — either this instance owns the key, or
// the owner is unreachable and local ingest is the no-loss fallback
// (scattered reads will still find the data).
func (cl *svcCluster) forwardPublish(ctx context.Context, ns Namespace, leaf string, n *conduit.Node, payload []byte) (done bool, err error) {
	ring := cl.tracker.Ring()
	if ring.Len() < 2 || leaf == "" {
		return false, nil
	}
	owner, ok := ring.Owner(cluster.ShardKey(string(ns), leaf))
	if !ok || owner.Addr == cl.self.Addr {
		return false, nil
	}
	ep, err := cl.endpoint(owner.Addr)
	if err != nil {
		telForwardFallback.Inc()
		return false, nil
	}
	if payload == nil {
		req := conduit.NewNode()
		req.SetString("ns", string(ns))
		req.Attach("data", n)
		buf := conduit.GetEncodeBuffer()
		defer conduit.PutEncodeBuffer(buf)
		*buf = req.AppendBinary(*buf)
		payload = *buf
	}
	_, err = ep.Call(ctx, RPCPublishLocal, payload)
	if err == nil {
		telForwards.Inc()
		return true, nil
	}
	if errors.Is(err, mercury.ErrRemoteFailed) {
		// The owner answered and rejected (bad namespace, stopped): that is
		// the publish's real outcome, not a transport fault to paper over.
		return true, err
	}
	telForwardFallback.Inc()
	return false, nil
}

// handlePublishLocal ingests a forwarded publish on the owning instance —
// same envelope as soma.publish, but never re-forwards, so two instances
// with diverged rings cannot bounce a publish between them.
func (s *Service) handlePublishLocal(ctx context.Context, payload []byte) ([]byte, error) {
	ctx, sp := telemetry.ChildSpan(ctx, "soma.publish.local.handler")
	defer sp.End()
	return s.publishEnvelope(ctx, payload, false, false)
}

// ---------------------------------------------------------------------------
// Rebalance: epoch-stamped handoff of mis-placed leaves.

func (cl *svcCluster) rebalanceLoop() {
	defer cl.wg.Done()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	var doneEpoch uint64 // ring epoch whose handoff completed fully
	for {
		select {
		case <-cl.stop:
			return
		case <-cl.kick:
		case <-tick.C:
		}
		ring := cl.tracker.Ring()
		if ring.Len() < 2 || ring.Epoch() == doneEpoch {
			continue
		}
		if cl.rebalanceOnce(ring) {
			doneEpoch = ring.Epoch()
		}
		// Partial failure (peer severed mid-rebalance): doneEpoch stays
		// behind and the next tick retries the remaining handoffs — data is
		// never at risk meanwhile, reads scatter.
	}
}

// rebalanceOnce scans every namespace's snapshot for leaves this instance
// holds but no longer owns under ring, and hands each owner its leaves in
// one epoch-stamped frame per (namespace, owner). Returns true when every
// handoff succeeded (or there was nothing to move).
func (cl *svcCluster) rebalanceOnce(ring *cluster.Ring) bool {
	ok := true
	for _, ns := range Namespaces {
		in, err := cl.svc.instanceFor(ns)
		if err != nil {
			continue
		}
		perOwner := map[string]*conduit.Node{}
		counts := map[string]int{}
		tree := in.snapshotTree()
		tree.Walk(func(path string, leaf *conduit.Node) bool {
			owner, has := ring.Owner(cluster.ShardKey(string(ns), path))
			if !has || owner.Addr == cl.self.Addr {
				return true
			}
			dst := perOwner[owner.Addr]
			if dst == nil {
				dst = conduit.NewNode()
				perOwner[owner.Addr] = dst
			}
			dst.Fetch(path).Merge(leaf)
			counts[owner.Addr]++
			return true
		})
		for addr, data := range perOwner {
			if err := cl.sendHandoff(ring.Epoch(), ns, addr, data); err != nil {
				ok = false
				continue
			}
			telHandoffLeaves.Add(int64(counts[addr]))
		}
	}
	return ok
}

func (cl *svcCluster) sendHandoff(epoch uint64, ns Namespace, addr string, data *conduit.Node) error {
	ep, err := cl.endpoint(addr)
	if err != nil {
		return err
	}
	req := conduit.NewNode()
	req.SetInt("epoch", int64(epoch))
	req.SetString("ns", string(ns))
	req.Attach("data", data)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = ep.Call(ctx, RPCHandoff, req.EncodeBinary())
	return err
}

// handleHandoff ingests a rebalance frame — a publish envelope stamped with
// the sender's ring epoch (checked in publishEnvelope). Like a forwarded
// publish it never re-forwards.
func (s *Service) handleHandoff(ctx context.Context, payload []byte) ([]byte, error) {
	if s.cl.Load() == nil {
		return nil, errors.New("soma: not clustered")
	}
	out, err := s.publishEnvelope(ctx, payload, false, true)
	if err == nil {
		telHandoffRecv.Inc()
	}
	return out, err
}

// ---------------------------------------------------------------------------
// Scatter-gather reads.

// handleSeriesDispatch serves soma.series: scattered across the fleet when
// this instance is clustered with live peers, local otherwise.
func (s *Service) handleSeriesDispatch(ctx context.Context, payload []byte) (mercury.Response, error) {
	if cl := s.cl.Load(); cl != nil && cl.active() {
		return cl.scatterSeries(ctx, payload)
	}
	return s.handleSeries(ctx, payload)
}

// handleAlertListDispatch serves soma.alert.list: scattered when clustered
// with live peers, local otherwise.
func (s *Service) handleAlertListDispatch(ctx context.Context, payload []byte) ([]byte, error) {
	if cl := s.cl.Load(); cl != nil && cl.active() {
		return cl.scatterAlertList(ctx)
	}
	return s.handleAlertList(ctx, payload)
}

// scatterCall fans payload out to every live peer's rpc with bounded
// parallelism, runs meanwhile (may be nil) while the calls are in flight —
// where a reader does its local share; its error fails the scatter once the
// calls are back — and then hands merge each raw response in sorted-address
// order, so colliding paths resolve the same way
// whichever peer answered first. Responses are the caller's to keep: the TCP
// transport allocates one per frame, and the inproc transport hands over
// either a copy or a peer's immutable cached frame, so merge may hold
// subslices but must never write through them. A peer failure — or a response
// merge rejects — fails the scatter with the peer's address in the error: a
// partial answer silently missing a live peer's shard would defeat the "reads
// find everything" invariant; callers retry, and a truly dead peer leaves the
// ring within PingMisses intervals — unless the caller's tolerate (may be nil)
// names the failure an answer in its own right ("nothing here"): that peer is
// skipped and every other answer is still merged.
func (cl *svcCluster) scatterCall(ctx context.Context, rpc string, payload []byte, tolerate func(error) bool, meanwhile func() error, merge func(resp []byte) error) error {
	addrs := cl.peerAddrs()
	if len(addrs) == 0 {
		if meanwhile != nil {
			return meanwhile()
		}
		return nil
	}
	telScatterFanouts.Inc()
	start := time.Now()
	defer telScatterLatency.ObserveSince(start)
	type result struct {
		resp []byte
		err  error
	}
	results := make([]result, len(addrs))
	sem := make(chan struct{}, cl.cfg.ScatterParallel)
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ep, err := cl.endpoint(addr)
			if err == nil {
				results[i].resp, err = ep.Call(ctx, rpc, payload)
			}
			results[i].err = err
		}(i, addr)
	}
	var localErr error
	if meanwhile != nil {
		localErr = meanwhile()
	}
	wg.Wait() // before any return: the calls read payload, which is the caller's
	if localErr != nil {
		return localErr
	}
	for i, r := range results {
		err := r.err
		if err == nil {
			telScatterBytes.Add(int64(len(r.resp)))
			err = merge(r.resp)
		} else if tolerate != nil && tolerate(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("cluster: peer %s: %w", addrs[i], err)
		}
	}
	return nil
}

// decodeInto adapts a tree-reading merge step to scatterCall's raw responses
// (series points and alert standings are small; only soma.query merges bytes).
func decodeInto(merge func(resp *conduit.Node)) func([]byte) error {
	return func(out []byte) error {
		resp, err := conduit.DecodeBinary(out)
		if err == nil {
			merge(resp)
		}
		return err
	}
}

// scatterEnvelope is the soma.query response envelope of a scattered read up
// to its data field: {epoch: 0, gen: 0, data: — the stamp is zeroed because a
// cross-shard union has no single (epoch, gen) identity, so delta memos never
// latch onto it. It is cut from the encoding of that envelope with an empty
// data child, whose single kind byte the union replaces.
var scatterEnvelope = func() []byte {
	resp := conduit.NewNode()
	resp.SetInt("epoch", 0)
	resp.SetInt("gen", 0)
	resp.Fetch("data")
	frame := resp.EncodeBinary()
	return frame[:len(frame)-1]
}()

// queryDataField is the one field scatterQuery slices out of a query frame.
var queryDataField = []string{"data"}

// scatterBufPool recycles the buffers scattered soma.query responses are
// built in; a whole-tree union is hundreds of KiB per read.
var scatterBufPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// maxPooledScatterBuf bounds what goes back into scatterBufPool.
const maxPooledScatterBuf = 4 << 20

// scatterQuery answers a soma.query for (ns, path) with the union of this
// instance's shard and every live peer's, in the plain soma.query envelope.
// payload is the request as it arrived: soma.query.local reads the same
// {ns, path} fields, so it goes out to the peers verbatim. While their answers
// are in flight the local shard's cached query frame is taken; then the data
// subtrees — local first, peers in address order, which is what decides
// colliding paths — are unioned as bytes (conduit.MergeNodes) straight into
// the pooled response buffer. No tree is built on this path.
func (cl *svcCluster) scatterQuery(ctx context.Context, in *instance, path string, payload []byte) (mercury.Response, error) {
	if cl.svc.Stopped() {
		return mercury.Response{}, ErrServiceStopped
	}
	var data [1][]byte
	nodes := make([][]byte, 0, 8)
	slice := func(frame []byte) error {
		// SliceFields validates the frame whole: a peer's answer is network
		// input, and everything MergeNodes is handed below has passed it.
		if err := conduit.SliceFields(frame, queryDataField, data[:]); err != nil {
			return err
		}
		if data[0] != nil {
			nodes = append(nodes, data[0])
		}
		return nil
	}
	err := cl.scatterCall(ctx, RPCQueryLocal, payload, nil,
		func() error { return slice(in.queryFrame(path)) }, slice)
	if err != nil {
		return mercury.Response{}, err
	}
	start := time.Now()
	sp := telemetry.LeafSpanAt(ctx, "cluster.scatter.merge", start)
	bp := scatterBufPool.Get().(*[]byte)
	*bp, err = conduit.MergeNodes(append((*bp)[:0], scatterEnvelope...), nodes)
	now := time.Now()
	telScatterMerge.Observe(now.Sub(start))
	sp.EndAt(now)
	// The engine releases an owned response on the error path too.
	return mercury.Response{Payload: *bp, Release: func() {
		if cap(*bp) <= maxPooledScatterBuf {
			scatterBufPool.Put(bp)
		}
	}}, err
}

// scatterSeries merges a soma.series request across the fleet: pattern
// requests union the key lists; single-key requests merge raw points by
// time and rollup buckets by window start (min/max/sum-weighted mean).
func (cl *svcCluster) scatterSeries(ctx context.Context, payload []byte) (mercury.Response, error) {
	req, err := conduit.DecodeBinary(payload)
	if err != nil {
		return mercury.Response{}, err
	}
	ns, err := envelopeNS(req)
	if err != nil {
		return mercury.Response{}, err
	}
	if key, ok := req.StringVal("key"); ok {
		level := Level1s
		if lv, ok := req.StringVal("level"); ok && lv != "" {
			level = SeriesLevel(lv)
		}
		after, _ := req.Float("after")
		var parts []Series
		if se, err := cl.svc.QuerySeries(ns, key, level, after); err == nil {
			parts = append(parts, se)
		} else if !errors.Is(err, ErrNoSeries) {
			return mercury.Response{}, err
		}
		// A peer that never saw this key answers ErrNoSeries; that is "no
		// data here", not a failure, and must not hide the owner's answer.
		err := cl.scatterCall(ctx, RPCSeriesLocal, payload, isPeerNoSeries, nil, decodeInto(func(resp *conduit.Node) {
			parts = append(parts, decodeSeriesResp(resp))
		}))
		if err != nil {
			return mercury.Response{}, err
		}
		if len(parts) == 0 {
			return mercury.Response{}, fmt.Errorf("%w: %s/%s", ErrNoSeries, ns, key)
		}
		return ownedFrame(encodeSeriesResp(mergeSeries(key, level, parts)))
	}
	pattern, _ := req.StringVal("pattern")
	keySet := map[string]struct{}{}
	if keys, err := cl.svc.SeriesKeys(ns, pattern); err == nil {
		for _, k := range keys {
			keySet[k] = struct{}{}
		}
	}
	err = cl.scatterCall(ctx, RPCSeriesLocal, payload, nil, nil, decodeInto(func(resp *conduit.Node) {
		if matches, ok := resp.Get("matches"); ok {
			for _, name := range matches.ChildNames() {
				if k, ok := matches.StringVal(name); ok {
					keySet[k] = struct{}{}
				}
			}
		}
	}))
	if err != nil {
		return mercury.Response{}, err
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	resp := conduit.NewNode()
	var keyBuf [32]byte
	for i, k := range keys {
		resp.SetString(string(appendMatchKey(keyBuf[:0], i)), k)
	}
	return ownedFrame(resp)
}

// isPeerNoSeries reports whether a scattered series failure is a peer
// answering "no such series" (which travels as a remote-failure string).
func isPeerNoSeries(err error) bool {
	return errors.Is(err, mercury.ErrRemoteFailed) &&
		strings.Contains(err.Error(), "no such series")
}

// mergeSeries folds per-shard answers for one series into a single view.
func mergeSeries(key string, level SeriesLevel, parts []Series) Series {
	out := Series{Key: key, Level: level}
	if level == LevelRaw {
		for _, p := range parts {
			out.Points = append(out.Points, p.Points...)
		}
		sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].Time < out.Points[j].Time })
		return out
	}
	byStart := map[float64]*SeriesBucket{}
	for _, p := range parts {
		for _, b := range p.Bucket {
			agg := byStart[b.Start]
			if agg == nil {
				cp := b
				byStart[b.Start] = &cp
				continue
			}
			if b.Min < agg.Min {
				agg.Min = b.Min
			}
			if b.Max > agg.Max {
				agg.Max = b.Max
			}
			total := float64(agg.Count) + float64(b.Count)
			agg.Mean = (agg.Mean*float64(agg.Count) + b.Mean*float64(b.Count)) / total
			agg.Count += b.Count
		}
	}
	for _, b := range byStart {
		out.Bucket = append(out.Bucket, *b)
	}
	sort.Slice(out.Bucket, func(i, j int) bool { return out.Bucket[i].Start < out.Bucket[j].Start })
	return out
}

// decodeSeriesResp decodes a soma.series single-key response frame — the
// inverse of encodeSeriesResp, shared with the client-side decode.
func decodeSeriesResp(resp *conduit.Node) Series {
	se := Series{}
	se.Key, _ = resp.StringVal("key")
	if lv, ok := resp.StringVal("level"); ok {
		se.Level = SeriesLevel(lv)
	}
	times, _ := resp.FloatArray("times")
	if se.Level == LevelRaw {
		values, _ := resp.FloatArray("values")
		for i := range times {
			if i < len(values) {
				se.Points = append(se.Points, SeriesPoint{Time: times[i], Value: values[i]})
			}
		}
		return se
	}
	mins, _ := resp.FloatArray("min")
	maxs, _ := resp.FloatArray("max")
	means, _ := resp.FloatArray("mean")
	counts, _ := resp.IntArray("count")
	for i := range times {
		if i >= len(mins) || i >= len(maxs) || i >= len(means) || i >= len(counts) {
			break
		}
		se.Bucket = append(se.Bucket, SeriesBucket{
			Start: times[i], Min: mins[i], Max: maxs[i], Mean: means[i], Count: counts[i],
		})
	}
	return se
}

// encodeSeriesResp builds the soma.series single-key response envelope.
func encodeSeriesResp(se Series) *conduit.Node {
	resp := conduit.NewNode()
	resp.SetString("key", se.Key)
	resp.SetString("level", string(se.Level))
	if se.Level == LevelRaw {
		times := make([]float64, len(se.Points))
		vals := make([]float64, len(se.Points))
		for i, p := range se.Points {
			times[i], vals[i] = p.Time, p.Value
		}
		resp.SetFloatArray("times", times)
		resp.SetFloatArray("values", vals)
		return resp
	}
	times := make([]float64, len(se.Bucket))
	mins := make([]float64, len(se.Bucket))
	maxs := make([]float64, len(se.Bucket))
	means := make([]float64, len(se.Bucket))
	counts := make([]int64, len(se.Bucket))
	for i, b := range se.Bucket {
		times[i], mins[i], maxs[i], means[i], counts[i] = b.Start, b.Min, b.Max, b.Mean, b.Count
	}
	resp.SetFloatArray("times", times)
	resp.SetFloatArray("min", mins)
	resp.SetFloatArray("max", maxs)
	resp.SetFloatArray("mean", means)
	resp.SetIntArray("count", counts)
	return resp
}

// scatterAlertList unions rules and standings across the fleet: rules
// dedupe by name, standings by (rule, ns, key) preferring a firing answer
// (any shard still judging the series as firing keeps the alert visible),
// then the most recent transition.
func (cl *svcCluster) scatterAlertList(ctx context.Context) ([]byte, error) {
	rules, states := cl.svc.Alerts()
	ruleByName := map[string]AlertRule{}
	for _, r := range rules {
		ruleByName[r.Name] = r
	}
	stateByKey := map[string]AlertState{}
	keyOf := func(st AlertState) string { return st.Rule + "\x00" + string(st.NS) + "\x00" + st.Key }
	mergeState := func(st AlertState) {
		k := keyOf(st)
		prev, ok := stateByKey[k]
		if !ok || (st.Firing && !prev.Firing) || (st.Firing == prev.Firing && st.Since > prev.Since) {
			stateByKey[k] = st
		}
	}
	for _, st := range states {
		mergeState(st)
	}
	err := cl.scatterCall(ctx, RPCAlertListLocal, okFrame, nil, nil, decodeInto(func(resp *conduit.Node) {
		prules, pstates := decodeAlertListResp(resp)
		for _, r := range prules {
			if _, ok := ruleByName[r.Name]; !ok {
				ruleByName[r.Name] = r
			}
		}
		for _, st := range pstates {
			mergeState(st)
		}
	}))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ruleByName))
	for n := range ruleByName {
		names = append(names, n)
	}
	sort.Strings(names)
	mergedStates := make([]AlertState, 0, len(stateByKey))
	keys := make([]string, 0, len(stateByKey))
	for k := range stateByKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		mergedStates = append(mergedStates, stateByKey[k])
	}
	resp := conduit.NewNode()
	for _, n := range names {
		r := ruleByName[n]
		base := "rules/" + r.Name
		resp.SetString(base+"/ns", string(r.NS))
		resp.SetString(base+"/pattern", r.Pattern)
		resp.SetString(base+"/op", r.Op)
		resp.SetFloat(base+"/threshold", r.Threshold)
		resp.SetFloat(base+"/window", r.WindowSec)
		resp.SetString(base+"/severity", r.Severity)
	}
	for i, st := range mergedStates {
		base := fmt.Sprintf("states/%06d", i)
		resp.SetString(base+"/rule", st.Rule)
		resp.SetString(base+"/ns", string(st.NS))
		resp.SetString(base+"/key", st.Key)
		resp.SetString(base+"/severity", st.Severity)
		if st.Firing {
			resp.SetString(base+"/state", "firing")
		} else {
			resp.SetString(base+"/state", "ok")
		}
		resp.SetFloat(base+"/value", st.Value)
		resp.SetFloat(base+"/since", st.Since)
	}
	return resp.EncodeBinary(), nil
}
