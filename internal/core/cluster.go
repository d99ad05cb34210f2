package core

import (
	"context"
	"errors"
	"slices"
	"sort"
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
// Which RPCs are placed, which scatter and how their answers merge is the
// table in rpc.go; this file is the ring, membership and rebalance beneath it.
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
	// telScatterMerge times the merge stage of a scattered read alone
	// (cluster.scatter.latency is peer wait plus merge); telScatterBytes
	// counts the peer response bytes scattered reads gathered.
	telScatterMerge = telemetry.Default().Histogram("cluster.scatter.merge")
	telScatterBytes = telemetry.Default().Counter("cluster.scatter.bytes")
)

// Cluster RPC names. The ".local" variants answer from this instance's own
// state only (see rpcRow).
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
	// PingInterval is the liveness cadence; 0 = 250ms. A peer is marked dead
	// after cluster.DefaultPingMisses consecutive failures.
	PingInterval time.Duration
	// Policy overrides the peer call policy (forwards, scatter, handoff,
	// pings). nil = peerCallPolicy().
	Policy *mercury.CallPolicy
}

func (c *ClusterConfig) defaults() {
	if c.PingInterval <= 0 {
		c.PingInterval = 250 * time.Millisecond
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

	// memos are the soma.query.delta gather memos, most recently used first
	// (gather.go).
	memoMu sync.Mutex
	memos  []*gatherMemo

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
		tracker: cluster.NewTracker(self, cluster.DefaultVnodes, cluster.DefaultPingMisses),
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
	timeout := 2 * cl.cfg.PingInterval
	if timeout < 500*time.Millisecond {
		timeout = 500 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	out, err := ep.Call(ctx, RPCPeerPing, conduit.Marshal(cl.self).EncodeBinary())
	cancel()
	if err != nil {
		return cl.tracker.ReportFailure(m.Addr)
	}
	var view ringAnswer
	if err := unmarshalFrame(out, &view); err != nil {
		return cl.tracker.ReportFailure(m.Addr)
	}
	return cl.tracker.ReportSuccess(m.Addr, view.members())
}

// ringAnswer is a membership view, the answer of soma.ring and of
// soma.peer.ping (whose request is the caller's cluster.Member): the ring
// epoch, 0 when the instance is not clustered; the vnode count, so routing
// clients build the identical ring; and the live members.
type ringAnswer struct {
	Epoch   uint64           `conduit:"epoch"`
	Vnodes  int              `conduit:"vnodes"`
	Members []cluster.Member `conduit:"members"`
}

// members returns the view's members, dropping any without an address.
func (a ringAnswer) members() []cluster.Member {
	return slices.DeleteFunc(a.Members, func(m cluster.Member) bool { return m.Addr == "" })
}

// ringFrame encodes this instance's membership view.
func (cl *svcCluster) ringFrame() []byte {
	ring := cl.tracker.Ring()
	return conduit.Marshal(ringAnswer{Epoch: ring.Epoch(), Vnodes: cluster.DefaultVnodes, Members: ring.Members()}).EncodeBinary()
}

// handlePeerPing serves liveness probes: hearing from a peer proves it
// alive (and may introduce it), and the response gossips this instance's
// own membership view back.
func (s *Service) handlePeerPing(_ context.Context, payload []byte) ([]byte, error) {
	cl := s.cl.Load()
	if cl == nil {
		return nil, errors.New("soma: not clustered")
	}
	var from cluster.Member
	if err := unmarshalFrame(payload, &from); err != nil {
		return nil, err
	}
	if from.Addr != "" {
		added := cl.tracker.Add(from)
		revived := cl.tracker.ReportSuccess(from.Addr, nil)
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
		return conduit.Marshal(ringAnswer{}).EncodeBinary(), nil
	}
	return cl.ringFrame(), nil
}

// ---------------------------------------------------------------------------
// Write placement: ownership check + one-hop forward.

// forwardPublish routes one publish to the peer owning its shard key: the
// first leaf of enc, the publish's validated tree frame, as written (a hostile
// wire frame that repeats a sibling name may route differently from its
// decoded tree; placement is never a correctness requirement). Multi-leaf
// publishes route as a unit. A wire publish also passes the {ns, data}
// envelope it arrived as in payload and it goes out verbatim; an in-process
// one has none (payload nil) and the envelope is built only once a forward is
// certain. done=true means the owner accepted (or definitively rejected) it
// and err is the final answer; done=false means the caller should ingest
// locally — either this instance owns the key, or the owner is unreachable
// and local ingest is the no-loss fallback (scattered reads will still find
// the data).
func (cl *svcCluster) forwardPublish(ctx context.Context, ns Namespace, enc, payload []byte) (done bool, err error) {
	ring := cl.tracker.Ring()
	if ring.Len() < 2 {
		return false, nil
	}
	leaf, _ := conduit.FirstLeafPath(enc, nil) // enc was validated at the door
	if len(leaf) == 0 {
		return false, nil
	}
	owner, ok := ring.Owner(cluster.ShardKey(string(ns), string(leaf)))
	if !ok || owner.Addr == cl.self.Addr {
		return false, nil
	}
	ep, err := cl.endpoint(owner.Addr)
	if err != nil {
		telForwardFallback.Inc()
		return false, nil
	}
	if payload == nil {
		buf := conduit.GetEncodeBuffer()
		defer conduit.PutEncodeBuffer(buf)
		*buf = appendPublishEnvelope(*buf, ns, enc)
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
	cl := s.cl.Load()
	if cl == nil {
		return nil, errors.New("soma: not clustered")
	}
	out, err := s.publishEnvelope(ctx, payload, cl, true)
	if err == nil {
		telHandoffRecv.Inc()
	}
	return out, err
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
