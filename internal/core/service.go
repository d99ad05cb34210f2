package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/des"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Service-side telemetry: ingest and rebuild latency histograms, shared by
// all service instances in the process (one somad serves one registry).
var (
	telPubLatency     = telemetry.Default().Histogram("core.publish.latency")
	telQueryLatency   = telemetry.Default().Histogram("core.query.latency")
	telRebuildLatency = telemetry.Default().Histogram("core.snapshot.rebuild.latency")
	telPublishes      = telemetry.Default().Counter("core.publishes")
	// Batch ingest accounting: one frame / one latency observation per batch,
	// while telPublishes still counts every leaf publish inside it.
	telBatchLatency = telemetry.Default().Histogram("core.publish.batch.latency")
	telBatchFrames  = telemetry.Default().Counter("core.publish.batch.frames")

	// Query answers: polls answered "unchanged"; and partial answers built,
	// with the children they carried and the children they left to the
	// caller's memo.
	telDeltaUnchanged = telemetry.Default().Counter("core.query.delta_unchanged")
	telDeltaPartial   = telemetry.Default().Counter("core.query.delta_partial")
	telDeltaSent      = telemetry.Default().Counter("core.query.delta_children_sent")
	telDeltaHeld      = telemetry.Default().Counter("core.query.delta_children_held")
)

// ServiceConfig configures a SOMA service task.
type ServiceConfig struct {
	// RanksPerNamespace is the number of service processes assigned to each
	// namespace instance — the "SOMA Ranks Per Namespace" row of the
	// paper's Tables 1 and 2. Each instance is sharded into that many lock
	// stripes (capped at GOMAXPROCS), so more ranks means more concurrent
	// publish capacity, exactly the knob the Scaling experiments turn.
	RanksPerNamespace int
	// Shared collapses all namespaces into a single instance (the ablation
	// baseline for the per-namespace instance split): all four namespaces
	// then contend for one instance's stripes instead of each owning its
	// own set.
	Shared bool
	// Deprecated: has no effect since the history ring was deleted; kept only
	// so bench/somaperf compiles — remove with replayHistory in the next
	// benchmark PR.
	MaxRecords int
	// Clock stamps arrivals; defaults to a real clock.
	Clock des.Clock
	// DisableRollups turns off the windowed series rollups (and with them
	// soma.series and threshold-alert evaluation).
	DisableRollups bool
	// EngineOptions is passed through to the service's mercury engine —
	// chaos tests use it to install a fault-injection transport
	// (mercury.WithInjector).
	EngineOptions []mercury.Option
}

func (c *ServiceConfig) defaults() {
	if c.RanksPerNamespace < 1 {
		c.RanksPerNamespace = 1
	}
	if c.Clock == nil {
		c.Clock = des.NewRealClock()
	}
}

// stripeCount maps configured ranks onto lock stripes: one stripe per rank,
// capped at GOMAXPROCS (more stripes than runnable threads only adds
// footprint, not parallelism).
func stripeCount(ranks int) int {
	n := ranks
	if maxp := runtime.GOMAXPROCS(0); n > maxp {
		n = maxp
	}
	if n < 1 {
		n = 1
	}
	return n
}

// InstanceStats summarizes one namespace instance's activity. soma.stats
// answers a map of them keyed by namespace, their fields named on the wire by
// the conduit tags and in the gateway's /api/stats by the json tags.
type InstanceStats struct {
	Namespace Namespace `conduit:"-" json:"ns"` // the answer's map key
	Ranks     int       `conduit:"ranks" json:"ranks"`
	Stripes   int       `conduit:"stripes" json:"stripes"`
	Publishes int64     `conduit:"publishes" json:"publishes"`
	Leaves    int64     `conduit:"leaves" json:"leaves"` // leaves currently in the merged snapshot
	BytesIn   int64     `conduit:"bytes_in" json:"bytes_in"`
	LastTime  float64   `conduit:"last_time" json:"last_time"`

	// Occupancy of the instance's bounded store, to be read against its
	// bound before that bites: rollup series held of SeriesCap (past it new
	// series are dropped and counted) with the bytes their rings hold (at
	// most 48 KiB each). All zero from a service without rollups or one that
	// predates the fields.
	Series      int   `conduit:"series" json:"series"`
	SeriesCap   int   `conduit:"series_cap" json:"series_cap"`
	SeriesBytes int64 `conduit:"series_bytes" json:"series_bytes"`
}

// record is one raw publish waiting in a stripe's pending list, from the
// door to the next fold and no longer. seq gives the global arrival order
// within the instance (records drained from different stripes are
// re-interleaved by seq before they are folded). enc is the publish's
// validated tree frame — for a wire publish a subslice of one retained copy
// of the request frame. No tree is built at ingest — the fold merges the
// bytes — so thousands of pending publishes cost the garbage collector a
// handful of flat byte buffers instead of a map-and-string forest.
type record struct {
	seq uint64
	enc []byte
}

// stripe is one lock-striped shard of an instance — a lock and a pending
// list: a publish appends here in O(1) and never touches the merged tree.
type stripe struct {
	mu      sync.Mutex
	pending []record // publishes not yet folded into the snapshot
	pubs    int64
	bytesIn int64
	last    float64
	// cut is how many of pending the rebuild in progress drains; it is
	// only touched under the instance's rebuildMu.
	cut int
}

// snapshot is an immutable, generation-stamped merged view of everything
// published into an instance. Readers share it without copying; it is
// replaced wholesale (copy-on-read) when stale.
//
// The (epoch, gen) pair is the snapshot's identity stamp on the wire: gen is
// the snapshot's number, counted by the rebuilds and resets of one instance
// lifetime, epoch is drawn at random when the instance is built and redrawn
// on every reset. A client that presents a matching stamp provably holds this
// exact state — equal stamps cannot span a reset (the epoch changed) or a
// service restart (a fresh process draws a fresh epoch), which is what makes
// the delta-query "unchanged" answer safe. Every node a rebuild folded in
// carries the rebuild's number as its conduit stamp, which is how a patch
// answer finds what changed since a caller's gen (queryAnswer).
type snapshot struct {
	epoch uint64
	gen   uint64
	// fresh is the instance's change count (instance.gen) the snapshot holds
	// every change of.
	fresh uint64
	tree  *conduit.Node
	// unchanged is the encoded {epoch, gen, unchanged: true} answer to a poll
	// that presents this snapshot's stamp, built with the snapshot so the
	// repeat poll of an unchanged namespace allocates nothing. Immutable:
	// handlers hand it to the transport by reference.
	unchanged []byte
}

func newSnapshot(epoch, gen, fresh uint64, tree *conduit.Node) *snapshot {
	return &snapshot{epoch: epoch, gen: gen, fresh: fresh, tree: tree, unchanged: unchangedAnswer(epoch, gen).EncodeBinaryStable()}
}

// newEpoch draws a reset-epoch: uniformly random, truncated to 63 bits so
// it survives the wire's signed varint, and never zero — a client that has
// no memo yet presents (0, 0), which must never match.
func newEpoch() uint64 {
	return rand.Uint64()>>1 | 1
}

// instance is the storage and aggregation unit for one namespace. Publishes
// fan out across stripes; Query/Select/Stats read through a lazily rebuilt
// merge snapshot.
type instance struct {
	ns      Namespace
	ranks   int
	stripes []*stripe

	// rr round-robins publishes across stripes; seq stamps global arrival
	// order; gen counts state changes (publishes and resets) and is bumped
	// only after the change is visible in a stripe, so a snapshot fresh as of
	// G contains every change counted by G.
	rr  atomic.Uint64
	seq atomic.Uint64
	gen atomic.Uint64
	// epoch is the reset-epoch half of the snapshot stamp; it is only
	// written under rebuildMu (resets), so a rebuild holding that lock reads
	// a value consistent with the gen it stamps.
	epoch atomic.Uint64

	snap atomic.Pointer[snapshot]
	// rebuildMu serializes snapshot rebuilds and resets; publishes never
	// take it. snaps numbers the snapshots they make (snapshot.gen).
	rebuildMu sync.Mutex
	snaps     uint64
	// foldScratch is the previous rebuild's drained-record buffer, recycled
	// (under rebuildMu) so steady-state rebuilds stop allocating fold
	// batches; see currentSnapshot.
	foldScratch []record

	// rollup holds the instance's windowed time-series buckets (see
	// series.go); nil when rollups are disabled.
	rollup *seriesStore
}

func newInstance(ns Namespace, ranks, stripes int) *instance {
	in := &instance{ns: ns, ranks: ranks, stripes: make([]*stripe, stripes)}
	for i := range in.stripes {
		in.stripes[i] = &stripe{}
	}
	in.epoch.Store(newEpoch())
	in.snap.Store(newSnapshot(in.epoch.Load(), 0, 0, conduit.NewNode()))
	return in
}

// snapshotTree returns the instance's merged tree; see currentSnapshot.
func (in *instance) snapshotTree() *conduit.Node {
	return in.currentSnapshot().tree
}

// currentSnapshot returns the instance's up-to-date snapshot, rebuilding it
// copy-on-read only when publishes (or a reset) have landed since the
// cached generation. The returned snapshot is immutable and shared:
// repeated queries against an unchanged instance cost two atomic loads, and
// its (epoch, gen) stamp is consistent — both are set under rebuildMu, the
// lock resets hold while changing them.
func (in *instance) currentSnapshot() *snapshot {
	s := in.snap.Load()
	if s.fresh == in.gen.Load() {
		return s
	}
	in.rebuildMu.Lock()
	defer in.rebuildMu.Unlock()
	// Capture the generation before draining: every change counted by g is
	// already appended to a stripe, so the rebuilt tree contains it.
	// Changes landing before the drain's cut (below) may also be folded in;
	// they only cause one spurious (empty) rebuild later.
	g := in.gen.Load()
	s = in.snap.Load()
	if s.fresh == g {
		return s
	}
	rebuildStart := time.Now()
	defer telRebuildLatency.ObserveSince(rebuildStart)
	// At sustained batch-ingest rates a rebuild drains hundreds of
	// thousands of records, so the drain avoids per-record work wherever it
	// can: the first dirty stripe's pending slice is stolen wholesale (a
	// swap, no copy — with one hot stripe, the single-core and single-
	// publisher shapes, that is the entire drain), later stripes append-
	// copy, and the drained buffer is recycled through foldScratch for the
	// next rebuild. Vacated slices keep their capacity unless a spike grew
	// them past pendingKeepCap. Stale records past a recycled slice's
	// length pin their batch frames until overwritten — a window bounded by
	// one rebuild interval, far cheaper than memclr'ing tens of megabytes
	// of drained records on every rebuild.
	//
	// The drain takes the stripes as they stood at one instant: with every
	// stripe lock held, it notes how many records each holds, and drains
	// only those. seq is drawn under the stripe lock, so every record inside
	// the cut precedes every record outside it. Draining each stripe as
	// found would fold a publish that landed in an already-drained stripe
	// one rebuild after a later publish that landed in a stripe drained
	// after it, and a leaf both wrote would keep the older value.
	for _, st := range in.stripes {
		st.mu.Lock()
	}
	for _, st := range in.stripes {
		st.cut = len(st.pending)
		st.mu.Unlock()
	}
	scratch := in.foldScratch[:0]
	in.foldScratch = nil
	pend := scratch
	dirty := 0
	for _, st := range in.stripes {
		if st.cut == 0 {
			continue
		}
		st.mu.Lock()
		dirty++
		if dirty == 1 && st.cut == len(st.pending) {
			pend, st.pending = st.pending, scratch
		} else {
			pend = append(pend, st.pending[:st.cut]...)
			rest := copy(st.pending, st.pending[st.cut:])
			if rest == 0 && cap(st.pending) > pendingKeepCap {
				st.pending = nil
			} else {
				st.pending = st.pending[:rest]
			}
		}
		st.mu.Unlock()
	}
	if dirty > 1 {
		// Merge in global arrival order so last-writer-wins semantics on
		// colliding leaf paths match the pre-sharded single-lock behaviour.
		// One stripe's records are already seq-ordered — appended under the
		// stripe lock with a monotonic stamp — so a single-stripe drain
		// skips the sort.
		sort.Slice(pend, func(i, j int) bool { return pend[i].seq < pend[j].seq })
	}
	// Fold the batch into one small delta first, stamp it with the new
	// snapshot's number, then graft it onto the snapshot with a single
	// copy-on-write pass: the snapshot's wide fan-out nodes are copied once
	// per rebuild, not once per publish, and every node the pass makes takes
	// the batch's stamp.
	in.snaps++
	batch := foldRecords(pend)
	if batch != nil {
		batch.Stamp(uint32(in.snaps))
	}
	tree := conduit.MergeCOW(s.tree, batch)
	next := newSnapshot(in.epoch.Load(), in.snaps, g, tree)
	in.snap.Store(next)
	if cap(pend) <= pendingKeepCap {
		in.foldScratch = pend[:0]
	}
	return next
}

// pendingKeepCap bounds the record capacity a stripe's pending slice (and
// the rebuild's drain buffer) may retain between rebuilds: large enough
// that a full second of million-publish/sec ingest between query folds
// recycles without reallocating (past the cap every rebuild regrows the
// slice from zero — repeated doubling, large-alloc zeroing, and copy were
// a fifth of the profile), small enough (a record is 32 bytes — pinned by
// TestRecordLayout — so the cap is 64 MiB) that an idle instance isn't
// sitting on an unbounded spike's memory forever.
const pendingKeepCap = 1 << 21

// foldRecords merges the seq-sorted drained batch into one delta tree,
// straight from the records' wire bytes with no intermediate tree; the merge
// cache memoizes shared ancestor paths across consecutive records.
//
// The accumulator is a plain mutable tree, not a MergeCOW overlay chain: the
// batch tree is private until it is grafted onto the snapshot, so per-record
// CoW bookkeeping is pure overhead — and at high-rate single-leaf ingest the
// overlay chains it builds made folding a drained batch quadratic.
func foldRecords(pend []record) *conduit.Node {
	if len(pend) == 0 {
		return nil
	}
	batch := conduit.NewNode()
	var mc conduit.MergeCache
	for i := range pend {
		// enc was validated at ingest; an error here is unreachable.
		_ = conduit.MergeBinaryIntoCached(batch, pend[i].enc, &mc)
	}
	return batch
}

// query returns the merged subtree at path. The result is part of the
// immutable snapshot — shared, not cloned; callers must not modify it.
func (in *instance) query(path string) *conduit.Node {
	return in.currentSnapshot().at(path)
}

// at is the subtree at path, or an empty node when there is none.
func (s *snapshot) at(path string) *conduit.Node {
	sub, ok := s.tree.Get(path)
	if !ok {
		return conduit.NewNode()
	}
	return sub
}

// The three soma.query.delta answers (§4f), built from a stamp and a subtree
// or patch: an instance's snapshot, or a clustered member's union of its
// members' shards (gatherMemo).

// fullAnswer is {epoch, gen, data: sub}, the answer soma.query gives. The
// subtree is attached, not copied: encoding only reads it.
func fullAnswer(epoch, gen uint64, sub *conduit.Node) *conduit.Node {
	resp := conduit.NewNode()
	resp.SetInt("epoch", int64(epoch))
	resp.SetInt("gen", int64(gen))
	resp.Attach("data", sub)
	return resp
}

// patchEnvelope is {epoch, gen, base, count, patch}: the children patch
// holds, in a subtree of count children.
func patchEnvelope(epoch, gen, base uint64, count int, patch *conduit.Node) *conduit.Node {
	sent := patch.NumChildren()
	telDeltaPartial.Inc()
	telDeltaSent.Add(int64(sent))
	telDeltaHeld.Add(int64(count - sent))
	resp := conduit.NewNode()
	resp.SetInt("epoch", int64(epoch))
	resp.SetInt("gen", int64(gen))
	resp.SetInt("base", int64(base))
	resp.SetInt("count", int64(count))
	resp.Attach("patch", patch)
	return resp
}

// unchangedAnswer is {epoch, gen, unchanged: true}, the answer to a caller
// whose stamp is the current one.
func unchangedAnswer(epoch, gen uint64) *conduit.Node {
	resp := conduit.NewNode()
	resp.SetInt("epoch", int64(epoch))
	resp.SetInt("gen", int64(gen))
	resp.SetBool("unchanged", true)
	return resp
}

// selectFrame returns the encoded soma.select answer for pattern: the
// matching leaf paths with their numeric values.
func (in *instance) selectFrame(pattern string) []byte {
	tree := in.snapshotTree()
	paths := tree.Select(pattern)
	matches := make([]SelectMatch, len(paths))
	for i, p := range paths {
		matches[i].Path = p
		matches[i].Value, matches[i].HasValue = tree.Float(p)
	}
	return conduit.Marshal(matches).EncodeBinary()
}

func (in *instance) stats() InstanceStats {
	out := InstanceStats{
		Namespace: in.ns,
		Ranks:     in.ranks,
		Stripes:   len(in.stripes),
		Leaves:    int64(in.snapshotTree().NumLeaves()),
	}
	out.Publishes, out.BytesIn, out.LastTime = in.counters()
	if in.rollup != nil {
		out.SeriesCap = in.rollup.maxSeries
		out.Series, out.SeriesBytes = in.rollup.occupancy()
	}
	return out
}

// counters sums the stripes' ingest counters: publishes, bytes in and the
// newest publish time. It reads no snapshot, so a liveness probe folds and
// walks nothing.
func (in *instance) counters() (pubs, bytesIn int64, last float64) {
	for _, st := range in.stripes {
		st.mu.Lock()
		pubs += st.pubs
		bytesIn += st.bytesIn
		last = max(last, st.last)
		st.mu.Unlock()
	}
	return pubs, bytesIn, last
}

// reset discards merged state and pending batches, keeping the publish
// counters.
func (in *instance) reset() {
	in.rebuildMu.Lock()
	// Capture the generation before clearing: a publish overlapping the
	// reset bumps gen past g, so the next read rebuilds and picks it up
	// instead of leaving it stranded in a pending batch.
	g := in.gen.Add(1)
	// Redraw the reset-epoch so stamps handed out before the reset can
	// never match stamps after it — a delta poll or a client's generation
	// memo from the old lineage always gets a full response, even if the
	// gen counter were to collide. Written under rebuildMu so concurrent
	// rebuilds stamp a consistent (epoch, gen) pair.
	in.epoch.Store(newEpoch())
	for _, st := range in.stripes {
		st.mu.Lock()
		st.pending = nil
		st.mu.Unlock()
	}
	in.snaps++
	in.snap.Store(newSnapshot(in.epoch.Load(), in.snaps, g, conduit.NewNode()))
	in.rebuildMu.Unlock()
	if in.rollup != nil {
		in.rollup.reset()
	}
}

// Service is the SOMA service task: N service processes split across one
// instance per namespace, fronted by RPC handlers on a mercury engine.
type Service struct {
	cfg       ServiceConfig
	engine    *mercury.Engine
	instances map[Namespace]*instance

	// updates logs publishes and alert transitions for subscribers, local
	// and remote (the soma.updates.* rows; subscribe.go).
	updates updateLog
	alerts  *alertEngine

	// started stamps service construction for soma.health's uptime.
	started time.Time

	// profileBusy serializes soma.profile captures: runtime/pprof allows a
	// single active CPU profile per process, and even snapshot profiles are
	// expensive enough that concurrent captures would be their own overhead
	// problem. See handleProfile.
	profileBusy atomic.Bool

	// cl is non-nil once JoinCluster turned this service into a sharded
	// cluster member: publishes are placed by consistent hash (one-hop
	// forward to the owner), reads scatter to every live member. See
	// rpcTable and cluster.go.
	cl atomic.Pointer[svcCluster]

	mu      sync.Mutex
	addrs   []string
	stopped bool
}

// RPC handler names the service registers.
const (
	RPCPublish = "soma.publish"
	// RPCPublishBatch carries many (namespace, tree) publishes in one
	// conduit batch frame (see conduit.DecodeBatch); the service applies
	// them in wire order with one stripe-lock acquisition and one
	// rollup/alert pass per consecutive same-namespace run.
	RPCPublishBatch = "soma.publish.batch"
	RPCQuery        = "soma.query"
	RPCStats        = "soma.stats"
	RPCShutdown     = "soma.shutdown"
	RPCReset        = "soma.reset"
	RPCSelect       = "soma.select"
	RPCTelemetry    = "soma.telemetry"
	// RPCQueryDelta is RPCQuery by a second name, the one clients poll: the
	// request carries the client's last-seen (epoch, gen) stamp and the
	// service answers with a tiny {epoch, gen, unchanged: true} frame when
	// the stamp still matches, with a {epoch, gen, base, count, patch} frame
	// of the changed children when the request also says patch: true and the
	// change is small enough, or the full {epoch, gen, data} frame otherwise.
	RPCQueryDelta = "soma.query.delta"

	RPCSeries      = "soma.series"
	RPCAlertSet    = "soma.alert.set"
	RPCAlertList   = "soma.alert.list"
	RPCAlertRemove = "soma.alert.rm"
)

// ErrServiceStopped is returned for requests after shutdown.
var ErrServiceStopped = errors.New("soma: service stopped")

// NewService builds a service with one instance per namespace (or one
// shared instance when cfg.Shared). Per-namespace mode gets
// 4×stripeCount(ranks) publish locks in total; shared mode gets
// stripeCount(ranks) locks contended by all four namespaces — the ablation
// gap of the paper's Tables 1–2, expressed as a stripe-count difference.
func NewService(cfg ServiceConfig) *Service {
	cfg.defaults()
	s := &Service{
		cfg:       cfg,
		engine:    mercury.NewEngine(cfg.EngineOptions...),
		instances: map[Namespace]*instance{},
		started:   time.Now(),
	}
	stripes := stripeCount(cfg.RanksPerNamespace)
	if cfg.Shared {
		shared := newInstance("shared", cfg.RanksPerNamespace*len(Namespaces), stripes)
		for _, ns := range Namespaces {
			s.instances[ns] = shared
		}
	} else {
		for _, ns := range Namespaces {
			s.instances[ns] = newInstance(ns, cfg.RanksPerNamespace, stripes)
		}
	}
	if !cfg.DisableRollups {
		if cfg.Shared {
			s.instances[NSWorkflow].rollup = newSeriesStore(defaultMaxSeries)
		} else {
			for _, ns := range Namespaces {
				s.instances[ns].rollup = newSeriesStore(defaultMaxSeries)
			}
		}
	}
	s.updates = updateLog{expiry: leaseExpiry, budget: logBudget, cursors: map[int64]*cursor{}}
	s.alerts = newAlertEngine(s.publishAlertStream)
	for i := range rpcTable {
		row := &rpcTable[i]
		register := s.engine.RegisterOwned
		if row.blocking {
			register = s.engine.RegisterBlocking
		}
		register(row.name, s.serve(row, false))
		if row.kind != rpcLocal {
			// On a solo service too: it may yet join a fleet.
			register(row.name+".local", s.serve(row, true))
		}
	}
	return s
}

// Listen exposes the service at addr ("inproc://..." or "tcp://...") and
// returns the concrete address clients connect to — the RPC address the
// service makes "publicly known within the workflow".
func (s *Service) Listen(addr string) (string, error) {
	concrete, err := s.engine.Listen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.addrs = append(s.addrs, concrete)
	s.mu.Unlock()
	return concrete, nil
}

// Addrs returns every address the service listens on.
func (s *Service) Addrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.addrs...)
}

// Engine exposes the underlying RPC engine (stats, tests).
func (s *Service) Engine() *mercury.Engine { return s.engine }

// Close shuts the service down: the engine close wakes any long-polling
// subscribers, then the update log releases every cursor, which closes the
// local subscriptions' channels.
func (s *Service) Close() error {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	if cl := s.cl.Load(); cl != nil {
		cl.shutdown()
	}
	err := s.engine.Close()
	s.updates.closeAll()
	return err
}

// Stopped reports whether shutdown was requested.
func (s *Service) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// running resolves ns on a service that still takes requests; after shutdown
// every namespace, known or not, answers ErrServiceStopped.
func (s *Service) running(ns Namespace) (*instance, error) {
	if s.Stopped() {
		return nil, ErrServiceStopped
	}
	return s.instanceFor(ns)
}

func (s *Service) instanceFor(ns Namespace) (*instance, error) {
	in, ok := s.instances[ns]
	if !ok {
		return nil, &ErrUnknownNamespace{NS: ns}
	}
	return in, nil
}

// Query returns the merged subtree at path within ns. The result is a
// shared, immutable snapshot — callers must not modify it. Repeated queries
// between publishes return the same tree with no copying.
func (s *Service) Query(ns Namespace, path string) (*conduit.Node, error) {
	in, err := s.running(ns)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sub := in.query(path)
	telQueryLatency.ObserveSince(start)
	return sub, nil
}

// QueryEncoded returns the frame a solo service answers an unstamped
// soma.query for path within ns with: {epoch, gen, data: <subtree>}, freshly
// encoded.
func (s *Service) QueryEncoded(ns Namespace, path string) ([]byte, error) {
	in, err := s.running(ns)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer telQueryLatency.ObserveSince(start)
	sn := in.currentSnapshot()
	return fullAnswer(sn.epoch, sn.gen, sn.at(path)).EncodeBinary(), nil
}

// QueryDeltaEncoded answers a generation-aware query: when the caller's
// (epoch, gen) stamp matches the namespace's current snapshot it returns the
// tiny {epoch, gen, unchanged: true} frame, which callers must treat as
// immutable; otherwise a fresh encode of the full query frame. A zero epoch
// (no memo yet) never matches.
func (s *Service) QueryDeltaEncoded(ns Namespace, path string, epoch, gen uint64) ([]byte, error) {
	resp, sn, err := s.queryAnswer(ns, path, epoch, gen, false)
	switch {
	case err != nil:
		return nil, err
	case resp == nil:
		return sn.unchanged, nil
	}
	return resp.EncodeBinary(), nil
}

// queryAnswer is the one soma.query decision of an instance (§4f), made for a
// caller that presented the stamp (epoch, gen) and says whether it can graft
// a patch. resp is the answer as a tree: a patch when the stamp is of sn's
// epoch, fewer than stampHorizon snapshots old, and fewer than half of the
// subtree's children were stamped after it — rewritten or added since —
// otherwise the full answer. resp is nil when the stamp is sn's own:
// "unchanged", which sn.unchanged holds encoded. The handler encodes the
// answer for the wire (handleQuery); a clustered member's gather reads its
// own shard from it as is (gatherMemo.ask).
func (s *Service) queryAnswer(ns Namespace, path string, epoch, gen uint64, patch bool) (resp *conduit.Node, sn *snapshot, err error) {
	in, err := s.running(ns)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	defer telQueryLatency.ObserveSince(start)
	sn = in.currentSnapshot()
	if epoch != 0 && epoch == sn.epoch && gen == sn.gen {
		telDeltaUnchanged.Inc()
		return nil, sn, nil
	}
	sub := sn.at(path)
	if patch && epoch == sn.epoch && gen < sn.gen && sn.gen-gen < stampHorizon {
		count := sub.NumChildren()
		if p, ok := conduit.ChildrenNewer(sub, uint32(gen), (count-1)/2); ok {
			return patchEnvelope(sn.epoch, sn.gen, gen, count, p), sn, nil
		}
	}
	return fullAnswer(sn.epoch, sn.gen, sub), sn, nil
}

// stampHorizon is how many snapshots old a stamp may be and still be patched:
// node stamps are 32-bit and compare in serial arithmetic (conduit.
// ChildrenNewer), so past 2³¹ a child rewritten since would read as older.
// The same wrap makes a child left alone for 2³¹ snapshots read as newer, so
// it rides along in patches. Snapshots are numbered per rebuild, made only
// for a read that finds the snapshot stale, rather than per publish, which
// would take a million publishes a second 36 minutes to wrap.
const stampHorizon = 1 << 31

// Select returns the leaf paths in ns matching a '/'-separated glob
// pattern ('*' = one segment, '**' = any tail), with the numeric values
// where leaves are numeric. Analyses use it to slice a namespace without
// pulling whole subtrees: Select(NSHardware, "PROC/*/*/CPU Util").
func (s *Service) Select(ns Namespace, pattern string) (paths []string, values map[string]float64, err error) {
	in, err := s.running(ns)
	if err != nil {
		return nil, nil, err
	}
	tree := in.snapshotTree()
	paths = tree.Select(pattern)
	values = map[string]float64{}
	for _, p := range paths {
		if v, ok := tree.Float(p); ok {
			values[p] = v
		}
	}
	return paths, values, nil
}

// ResetNamespace discards a namespace's merged tree, pending publishes and
// rollup series, keeping the counters. Long-running deployments call this at phase
// boundaries (after a snapshot) to bound the merged tree's growth.
func (s *Service) ResetNamespace(ns Namespace) error {
	in, err := s.running(ns)
	if err != nil {
		return err
	}
	in.reset()
	// The rollup series behind alert standings are gone too; drop them so
	// firing alerts do not outlive the data that justified them. A shared
	// instance holds every namespace's series, so the reset reaches all.
	if s.cfg.Shared {
		for _, other := range Namespaces {
			s.alerts.resetNamespace(other)
		}
	} else {
		s.alerts.resetNamespace(ns)
	}
	return nil
}

// Stats returns per-instance statistics in namespace order. With a shared
// instance, the same aggregate appears once under namespace "shared".
func (s *Service) Stats() []InstanceStats {
	ins := s.distinctInstances()
	out := make([]InstanceStats, len(ins))
	for i, in := range ins {
		out[i] = in.stats()
	}
	return out
}

// distinctInstances returns every instance once, in namespace order: with a
// shared instance, that one.
func (s *Service) distinctInstances() []*instance {
	if s.cfg.Shared {
		return []*instance{s.instances[NSWorkflow]}
	}
	out := make([]*instance, len(Namespaces))
	for i, ns := range Namespaces {
		out[i] = s.instances[ns]
	}
	return out
}

// ---------------------------------------------------------------------------
// RPC surface. Requests and responses are themselves Conduit trees on the
// wire (the service eats its own data model). The data path — publish, query,
// the update stream, a single series — is laid out by hand (queryFields,
// appendPublishEnvelope, encodeSeriesResp); every other request and answer is
// a Go value carried by conduit.Marshal and unmarshalFrame.

// okFrame is the constant empty-tree response frame shared by ack-only
// handlers; responses are never mutated by callers.
var okFrame = conduit.NewNode().EncodeBinary()

// unmarshalFrame decodes a control-plane frame into v: the server half of
// Client.call, and how a scatter merge reads its parts.
func unmarshalFrame(frame []byte, v any) error {
	n, err := conduit.DecodeBinary(frame)
	if err != nil {
		return err
	}
	return conduit.Unmarshal(n, v)
}

// Query request fields, in the order parseQuery slices them: {ns, path},
// the caller's last-seen stamp as {epoch: i64, gen: i64} (zero when absent — a
// stamp that never matches) and {patch: true} when the caller can graft a
// partial answer.
var queryFields = []string{"ns", "path", "epoch", "gen", "patch"}

// handleQuery answers soma.query and soma.query.delta — one RPC under two
// names — from local state alone, with queryAnswer's decision: the full
// {epoch, gen, data}, for a poll whose stamp still matches the tiny
// "unchanged" frame the snapshot holds, or for a stamped poll that says patch
// the partial answer when one applies. An unstamped request, which is every
// pre-delta client's, gets the full frame; such clients read only "data".
// Clients predating the partial answer never send patch, so never get one.
// Full and patch answers are encoded into a pooled buffer the transport
// releases once it has sent them. Asked by either name, a clustered member
// with live peers answers from its stamped union of all shards instead
// (gather.go), so a caller sees the same tree, stamped the same way, no
// matter which instance it asked.
func (s *Service) handleQuery(_ context.Context, payload []byte) (mercury.Response, error) {
	q, err := s.parseQuery(payload)
	if err != nil {
		return mercury.Response{}, err
	}
	resp, sn, err := s.queryAnswer(q.ns, q.path, q.epoch, q.gen, q.patch)
	switch {
	case err != nil:
		return mercury.Response{}, err
	case resp == nil:
		return mercury.Response{Payload: sn.unchanged}, nil
	}
	return ownedFrame(resp)
}

// queryReq is a soma.query* request.
type queryReq struct {
	ns         Namespace
	path       string
	epoch, gen uint64
	patch      bool
}

// parseQuery reads a soma.query* request, validated whole and read by offset
// like a publish envelope; an unknown namespace is refused here.
func (s *Service) parseQuery(payload []byte) (queryReq, error) {
	var f [5][]byte
	if err := conduit.SliceFields(payload, queryFields, f[:]); err != nil {
		return queryReq{}, err
	}
	name, ok := conduit.RawString(f[0])
	if !ok {
		return queryReq{}, fmt.Errorf("soma: request missing ns field")
	}
	ns, _, err := s.lookupNS(name)
	if err != nil {
		return queryReq{}, err
	}
	path, _ := conduit.RawString(f[1])
	epoch, _ := conduit.RawInt(f[2])
	gen, _ := conduit.RawInt(f[3])
	patch, _ := conduit.RawBool(f[4])
	return queryReq{ns: ns, path: string(path), epoch: uint64(epoch), gen: uint64(gen), patch: patch}, nil
}

func (s *Service) handleStats(ctx context.Context, _ []byte) ([]byte, error) {
	sp := telemetry.LeafSpan(ctx, "soma.stats.handler")
	defer sp.End()
	stats := map[Namespace]InstanceStats{}
	for _, st := range s.Stats() {
		stats[st.Namespace] = st
	}
	return conduit.Marshal(stats).EncodeBinaryStable(), nil
}

func (s *Service) handleShutdown(_ context.Context, _ []byte) ([]byte, error) {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	return okFrame, nil
}

func (s *Service) handleSelect(_ context.Context, payload []byte) ([]byte, error) {
	var req nsReq
	if err := unmarshalFrame(payload, &req); err != nil {
		return nil, err
	}
	in, err := s.running(req.NS)
	if err != nil {
		return nil, err
	}
	return in.selectFrame(req.Pattern), nil
}

// ownedFrame encodes resp into a frameBufPool buffer and wraps it as an owned
// mercury response; the transport calls Release once the frame is written,
// recycling the buffer instead of allocating one per request.
func ownedFrame(resp *conduit.Node) (mercury.Response, error) {
	bp := getFrameBuf()
	*bp = resp.AppendBinary(*bp)
	return mercury.Response{Payload: *bp, Release: func() { putFrameBuf(bp) }}, nil
}

func (s *Service) handleReset(_ context.Context, payload []byte) ([]byte, error) {
	var req nsReq
	if err := unmarshalFrame(payload, &req); err != nil {
		return nil, err
	}
	if err := s.ResetNamespace(req.NS); err != nil {
		return nil, err
	}
	return okFrame, nil
}
