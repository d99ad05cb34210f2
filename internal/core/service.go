package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

	// Query fast-path accounting: encoded-frame cache hits/misses across
	// query, select and stats serving, delta polls answered "unchanged", and
	// the wire bytes those tiny answers saved against the full frame; partial
	// delta answers built, with the children they carried and the children
	// they left to the caller's memo.
	telQueryCacheHits   = telemetry.Default().Counter("core.query.cache_hits")
	telQueryCacheMisses = telemetry.Default().Counter("core.query.cache_misses")
	telDeltaUnchanged   = telemetry.Default().Counter("core.query.delta_unchanged")
	telDeltaBytesSaved  = telemetry.Default().Counter("core.query.delta_bytes_saved")
	telDeltaPartial     = telemetry.Default().Counter("core.query.delta_partial")
	telDeltaSent        = telemetry.Default().Counter("core.query.delta_children_sent")
	telDeltaHeld        = telemetry.Default().Counter("core.query.delta_children_held")
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
// the conduit tags.
type InstanceStats struct {
	Namespace Namespace `conduit:"-"` // the answer's map key
	Ranks     int       `conduit:"ranks"`
	Stripes   int       `conduit:"stripes"`
	Publishes int64     `conduit:"publishes"`
	Leaves    int64     `conduit:"leaves"` // leaves currently in the merged snapshot
	BytesIn   int64     `conduit:"bytes_in"`
	LastTime  float64   `conduit:"last_time"`

	// Occupancy of the instance's bounded store, to be read against its
	// bound before that bites: rollup series held of SeriesCap (past it new
	// series are dropped and counted) with the bytes their rings hold (at
	// most 48 KiB each). All zero from a service without rollups or one that
	// predates the fields.
	Series      int   `conduit:"series"`
	SeriesCap   int   `conduit:"series_cap"`
	SeriesBytes int64 `conduit:"series_bytes"`
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
// The (epoch, gen) pair is the snapshot's identity stamp on the wire: gen
// counts state changes within one instance lifetime, epoch is drawn at
// random when the instance is built and redrawn on every reset. A client
// that presents a matching stamp provably holds this exact state — equal
// stamps cannot span a reset (the epoch changed) or a service restart (a
// fresh process draws a fresh epoch), which is what makes the delta-query
// "unchanged" answer safe.
type snapshot struct {
	epoch uint64
	gen   uint64
	tree  *conduit.Node

	// enc caches encoded RPC response frames built against this snapshot's
	// tree, keyed by request shape (query path / select pattern / the delta
	// "unchanged" frame). The cache lives and dies with the snapshot, so
	// invalidation is the generation bump that replaces the snapshot — no
	// separate bookkeeping. Entries are immutable once stored: handlers hand
	// them to the transport by reference.
	encMu sync.RWMutex
	enc   map[frameKey][]byte
}

// frameKey names one cached response frame: kind 'q' (query, key = path),
// 's' (select, key = pattern), 'u' (the delta "unchanged" frame) or 'd' (a
// partial delta answer, key = path, base = the generation it patches).
type frameKey struct {
	kind byte
	key  string
	base uint64
}

// Frame-cache bounds: a snapshot caches at most maxCachedFrames distinct
// frames (beyond that, extra request shapes are rebuilt per call), and
// frames larger than maxCachedFrameBytes are never cached — snapshots churn
// with every publish burst, and pinning megabyte frames per generation
// would trade the allocation win for memory pressure.
//
// Delta bases: an instance retains the subtrees its last deltaBaseGens
// soma.query.delta answers per path handed out, for at most
// maxDeltaBasePaths paths (least recently used out first), so a partial
// delta answer can be diffed against what the caller holds. A base is a subtree pointer, not a snapshot, so no
// superseded snapshot's frame cache stays pinned; what it does pin is the
// superseded versions of the children rewritten since — at worst
// deltaBaseGens × maxDeltaBasePaths old versions of a whole namespace.
const (
	maxCachedFrames     = 512
	maxCachedFrameBytes = 1 << 20
	deltaBaseGens       = 2
	maxDeltaBasePaths   = 16
)

// cached returns the frame stored under k, or nil.
func (s *snapshot) cached(k frameKey) []byte {
	s.encMu.RLock()
	f := s.enc[k]
	s.encMu.RUnlock()
	return f
}

// store caches frame under k and returns the canonical copy: when a racing
// builder already stored one, the first frame wins so all callers serve the
// same bytes.
func (s *snapshot) store(k frameKey, frame []byte) []byte {
	if len(frame) > maxCachedFrameBytes {
		return frame
	}
	s.encMu.Lock()
	defer s.encMu.Unlock()
	if prior := s.enc[k]; prior != nil {
		return prior
	}
	if s.enc == nil {
		s.enc = make(map[frameKey][]byte, 8)
	}
	if len(s.enc) < maxCachedFrames {
		s.enc[k] = frame
	}
	return frame
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
	// only after the change is visible in a stripe, so a snapshot stamped
	// with gen G contains every change counted by G.
	rr  atomic.Uint64
	seq atomic.Uint64
	gen atomic.Uint64
	// epoch is the reset-epoch half of the snapshot stamp; it is only
	// written under rebuildMu (resets), so a rebuild holding that lock reads
	// a value consistent with the gen it stamps.
	epoch atomic.Uint64

	snap atomic.Pointer[snapshot]
	// rebuildMu serializes snapshot rebuilds and resets; publishes never
	// take it.
	rebuildMu sync.Mutex
	// foldScratch is the previous rebuild's drained-record buffer, recycled
	// (under rebuildMu) so steady-state rebuilds stop allocating fold
	// batches; see currentSnapshot.
	foldScratch []record

	// rollup holds the instance's windowed time-series buckets (see
	// series.go); nil when rollups are disabled.
	rollup *seriesStore

	// bases are the delta bases: the subtrees recent query answers handed
	// out, most recently used path first (see retainBase).
	basesMu sync.Mutex
	bases   []pathBases
}

// deltaBase is one subtree a query answer handed out, with its stamp.
type deltaBase struct {
	epoch, gen uint64
	tree       *conduit.Node
}

// pathBases holds one path's delta bases, newest first.
type pathBases struct {
	path string
	last [deltaBaseGens]deltaBase
}

// retainBase records that a soma.query.delta answer handed out the subtree
// at path in snapshot s. Plain soma.query answers — a clustered member's
// shard reads among them — are never recorded: no caller presents their
// stamp for a patch. Only an object can be patched.
func (in *instance) retainBase(path string, s *snapshot) {
	sub, ok := s.tree.Get(path)
	if !ok || sub.Kind() != conduit.KindObject {
		return
	}
	b := deltaBase{epoch: s.epoch, gen: s.gen, tree: sub}
	in.basesMu.Lock()
	defer in.basesMu.Unlock()
	if !in.touchBases(path) {
		if len(in.bases) < maxDeltaBasePaths {
			in.bases = append(in.bases, pathBases{})
		}
		copy(in.bases[1:], in.bases)
		in.bases[0] = pathBases{path: path}
	}
	last := &in.bases[0].last
	if last[0].tree != nil && last[0].epoch == b.epoch && last[0].gen == b.gen {
		return
	}
	copy(last[1:], last[:])
	last[0] = b
}

// touchBases moves path's entry to the front, reporting whether it has one.
// Called with basesMu held.
func (in *instance) touchBases(path string) bool {
	for i := range in.bases {
		if in.bases[i].path == path {
			e := in.bases[i]
			copy(in.bases[1:i+1], in.bases[:i])
			in.bases[0] = e
			return true
		}
	}
	return false
}

// base returns the subtree at path an answer stamped (epoch, gen) handed
// out, or nil when it is no longer retained.
func (in *instance) base(path string, epoch, gen uint64) *conduit.Node {
	in.basesMu.Lock()
	defer in.basesMu.Unlock()
	if !in.touchBases(path) {
		return nil
	}
	for _, b := range in.bases[0].last {
		if b.tree != nil && b.epoch == epoch && b.gen == gen {
			return b.tree
		}
	}
	return nil
}

func newInstance(ns Namespace, ranks, stripes int) *instance {
	in := &instance{ns: ns, ranks: ranks, stripes: make([]*stripe, stripes)}
	for i := range in.stripes {
		in.stripes[i] = &stripe{}
	}
	in.epoch.Store(newEpoch())
	in.snap.Store(&snapshot{epoch: in.epoch.Load(), tree: conduit.NewNode()})
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
// its (epoch, gen) stamp is consistent — both are read under rebuildMu, the
// lock resets hold while changing them.
func (in *instance) currentSnapshot() *snapshot {
	s := in.snap.Load()
	if s.gen == in.gen.Load() {
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
	if s.gen == g {
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
	// Fold the batch into one small delta first, then graft it onto the
	// snapshot with a single copy-on-write pass: the snapshot's wide
	// fan-out nodes are copied once per rebuild, not once per publish.
	batch := foldRecords(pend)
	tree := conduit.MergeCOW(s.tree, batch)
	next := &snapshot{epoch: in.epoch.Load(), gen: g, tree: tree}
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
	sub, ok := in.snapshotTree().Get(path)
	if !ok {
		return conduit.NewNode()
	}
	return sub
}

// queryFrameAt returns the wire-ready soma.query response frame for path at
// snapshot s: {epoch, gen, data: <subtree>}. A repeat query against an
// unchanged instance is the hot path — two atomic loads, one RLock'd map
// probe, zero tree walk, zero allocation.
func (in *instance) queryFrameAt(s *snapshot, path string) []byte {
	k := frameKey{kind: 'q', key: path}
	if f := s.cached(k); f != nil {
		telQueryCacheHits.Inc()
		return f
	}
	telQueryCacheMisses.Inc()
	sub, ok := s.tree.Get(path)
	if !ok {
		sub = conduit.NewNode()
	}
	resp := conduit.NewNode()
	resp.SetInt("epoch", int64(s.epoch))
	resp.SetInt("gen", int64(s.gen))
	// Attach the immutable snapshot subtree instead of deep-merging it into
	// the envelope: encoding only reads the tree.
	resp.Attach("data", sub)
	return s.store(k, encodeFrame(resp))
}

// encodeFrame encodes a response frame for the snapshot cache. A whole-tree
// frame is hundreds of KiB: built in the large pooled buffer (conduit's
// encode pool keeps nothing above 64 KiB, so it would regrow by doubling on
// every snapshot), kept as one exact-size copy.
func encodeFrame(resp *conduit.Node) []byte {
	bp := getFrameBuf()
	*bp = resp.AppendBinary(*bp)
	frame := make([]byte, len(*bp))
	copy(frame, *bp)
	putFrameBuf(bp)
	return frame
}

// patchFrameAt answers a stamped soma.query.delta from a caller that accepts
// a patch: when the subtree the stamp (s.epoch, gen) handed out is retained
// and fewer than half of the current subtree's children were rewritten or
// added since, the frame is {epoch, gen, base: gen, count, patch: {those
// children, in snapshot order}}, which the caller grafts onto its copy to
// hold count children; otherwise it is the full query frame.
func (in *instance) patchFrameAt(s *snapshot, path string, gen uint64) []byte {
	k := frameKey{kind: 'd', key: path, base: gen}
	if f := s.cached(k); f != nil {
		telQueryCacheHits.Inc()
		return f
	}
	old := in.base(path, s.epoch, gen)
	sub, ok := s.tree.Get(path)
	if old == nil || !ok {
		return in.queryFrameAt(s, path)
	}
	count := sub.NumChildren()
	patch, ok := conduit.ChildrenSince(old, sub, (count-1)/2)
	if !ok {
		return in.queryFrameAt(s, path)
	}
	telQueryCacheMisses.Inc()
	sent := patch.NumChildren()
	telDeltaPartial.Inc()
	telDeltaSent.Add(int64(sent))
	telDeltaHeld.Add(int64(count - sent))
	resp := conduit.NewNode()
	resp.SetInt("epoch", int64(s.epoch))
	resp.SetInt("gen", int64(s.gen))
	resp.SetInt("base", int64(gen))
	resp.SetInt("count", int64(count))
	resp.Attach("patch", patch)
	return s.store(k, encodeFrame(resp))
}

// selectFrame returns the wire-ready soma.select response frame for
// pattern, cached against the snapshot exactly like queryFrameAt.
func (in *instance) selectFrame(pattern string) []byte {
	s := in.currentSnapshot()
	k := frameKey{kind: 's', key: pattern}
	if f := s.cached(k); f != nil {
		telQueryCacheHits.Inc()
		return f
	}
	telQueryCacheMisses.Inc()
	paths := s.tree.Select(pattern)
	matches := make([]SelectMatch, len(paths))
	for i, p := range paths {
		matches[i].Path = p
		matches[i].Value, matches[i].HasValue = s.tree.Float(p)
	}
	return s.store(k, conduit.Marshal(matches).EncodeBinaryStable())
}

// unchangedFrame returns the tiny {epoch, gen, unchanged: true} frame the
// delta query answers with when the client's stamp matches; built once per
// snapshot.
func (s *snapshot) unchangedFrame() []byte {
	k := frameKey{kind: 'u'}
	if f := s.cached(k); f != nil {
		return f
	}
	resp := conduit.NewNode()
	resp.SetInt("epoch", int64(s.epoch))
	resp.SetInt("gen", int64(s.gen))
	resp.SetBool("unchanged", true)
	return s.store(k, resp.EncodeBinaryStable())
}

func (in *instance) stats() InstanceStats {
	out := InstanceStats{
		Namespace: in.ns,
		Ranks:     in.ranks,
		Stripes:   len(in.stripes),
		Leaves:    int64(in.snapshotTree().NumLeaves()),
	}
	for _, st := range in.stripes {
		st.mu.Lock()
		out.Publishes += st.pubs
		out.BytesIn += st.bytesIn
		if st.last > out.LastTime {
			out.LastTime = st.last
		}
		st.mu.Unlock()
	}
	if in.rollup != nil {
		out.SeriesCap = in.rollup.maxSeries
		out.Series, out.SeriesBytes = in.rollup.occupancy()
	}
	return out
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
	in.snap.Store(&snapshot{epoch: in.epoch.Load(), gen: g, tree: conduit.NewNode()})
	in.rebuildMu.Unlock()
	in.basesMu.Lock()
	in.bases = nil
	in.basesMu.Unlock()
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

	// statsFrame caches the encoded soma.stats response, keyed by the
	// (epoch, gen) stamps of every instance at build time; any publish or
	// reset changes a stamp and the next request rebuilds. See handleStats.
	statsFrame atomic.Pointer[statsCache]

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

// statsCache pairs an encoded soma.stats frame with the instance stamps it
// was built against. Stale entries never match current stamps, so races
// between capture and encode self-heal on the next request.
type statsCache struct {
	stamps []uint64 // statsStamps() at build time
	frame  []byte
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
	// RPCQueryDelta is the generation-aware query: the request carries the
	// client's last-seen (epoch, gen) stamp and the service answers with a
	// tiny {epoch, gen, unchanged: true} frame when the stamp still matches,
	// with a {epoch, gen, base, count, patch} frame of the changed children
	// when the request also says patch: true and the change is small enough,
	// or the full {epoch, gen, data} frame otherwise.
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

// QueryEncoded returns the wire-ready soma.query response frame for path
// within ns: {epoch, gen, data: <subtree>}, pre-encoded and cached against
// the namespace's current snapshot. Repeat queries against an unchanged
// namespace return the same byte slice with zero tree walk and zero
// allocation. Callers (and the transport) must treat the frame as immutable.
func (s *Service) QueryEncoded(ns Namespace, path string) ([]byte, error) {
	in, err := s.running(ns)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	f := in.queryFrameAt(in.currentSnapshot(), path)
	telQueryLatency.ObserveSince(start)
	return f, nil
}

// QueryDeltaEncoded answers a generation-aware query: when the caller's
// (epoch, gen) stamp matches the namespace's current snapshot it returns the
// tiny {epoch, gen, unchanged: true} frame; otherwise the full query frame.
// A zero epoch (no memo yet) never matches.
func (s *Service) QueryDeltaEncoded(ns Namespace, path string, epoch, gen uint64) ([]byte, error) {
	return s.queryDelta(ns, path, epoch, gen, false)
}

// queryDelta is QueryDeltaEncoded for a caller that may also accept a partial
// answer (patch; see patchFrameAt).
func (s *Service) queryDelta(ns Namespace, path string, epoch, gen uint64, patch bool) ([]byte, error) {
	in, err := s.running(ns)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer telQueryLatency.ObserveSince(start)
	sn := in.currentSnapshot()
	if epoch != 0 && epoch == sn.epoch && gen == sn.gen {
		f := sn.unchangedFrame()
		telDeltaUnchanged.Inc()
		// Account the wire bytes this tiny answer saved against the full
		// frame, when the full frame is already cached (it is, for any
		// steady-state poller that received it last tick).
		if full := sn.cached(frameKey{kind: 'q', key: path}); full != nil {
			if saved := len(full) - len(f); saved > 0 {
				telDeltaBytesSaved.Add(int64(saved))
			}
		}
		return f, nil
	}
	var f []byte
	if patch && epoch != 0 && epoch == sn.epoch {
		f = in.patchFrameAt(sn, path, gen)
	} else {
		f = in.queryFrameAt(sn, path)
	}
	in.retainBase(path, sn)
	return f, nil
}

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
	if s.cfg.Shared {
		return []InstanceStats{s.instances[NSWorkflow].stats()}
	}
	out := make([]InstanceStats, 0, len(Namespaces))
	for _, ns := range Namespaces {
		out = append(out, s.instances[ns].stats())
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

// Query request fields, in the order queryHandler slices them: soma.query and
// soma.query.local carry {ns, path}, the delta RPCs add the caller's last-seen
// stamp as {epoch: i64, gen: i64} (zero when absent — a stamp that never
// matches) and {patch: true} when the caller can graft a partial answer.
var queryFields = []string{"ns", "path", "epoch", "gen", "patch"}

// queryHandler answers soma.query — or, with delta, soma.query.delta — from
// local state alone: the cached encoded frame {epoch, gen, data}, or for a
// delta poll whose stamp still matches the tiny "unchanged" frame (see
// QueryDeltaEncoded), or for a stamped poll that says patch the partial
// answer when one applies (see patchFrameAt). Clients predating the delta
// protocol only read "data" and ignore the stamp fields; clients predating
// the partial answer never send patch, so never get one. Asked by either
// name, a clustered member with live peers answers the union of all shards
// instead, so a caller sees the same tree no matter which instance it asked
// (see rpcTable, scatterEnvelope).
func queryHandler(delta bool) rpcHandler {
	return func(s *Service, _ context.Context, payload []byte) (mercury.Response, error) {
		// Validated whole and read by offset, like a publish envelope.
		var f [5][]byte
		if err := conduit.SliceFields(payload, queryFields, f[:]); err != nil {
			return mercury.Response{}, err
		}
		name, ok := conduit.RawString(f[0])
		if !ok {
			return mercury.Response{}, fmt.Errorf("soma: request missing ns field")
		}
		ns, _, err := s.lookupNS(name)
		if err != nil {
			return mercury.Response{}, err
		}
		path, _ := conduit.RawString(f[1])
		var frame []byte
		if delta {
			epoch, _ := conduit.RawInt(f[2])
			gen, _ := conduit.RawInt(f[3])
			patch, _ := conduit.RawBool(f[4])
			frame, err = s.queryDelta(ns, string(path), uint64(epoch), uint64(gen), patch)
		} else {
			frame, err = s.QueryEncoded(ns, string(path))
		}
		return mercury.Response{Payload: frame}, err
	}
}

// statsStamps captures, in Stats() order, what every instance's soma.stats row
// is a function of — the statsFrame cache key: the snapshot's (epoch, gen)
// stamp, which every publish and reset moves, and the rollup store's
// occupancy, which moves a moment later (the fold follows the stripe append
// that bumps gen) and would otherwise be cached one publish stale.
func (s *Service) statsStamps() []uint64 {
	out := make([]uint64, 0, 4*len(Namespaces))
	stamp := func(in *instance) {
		sn := in.currentSnapshot()
		out = append(out, sn.epoch, sn.gen)
		if in.rollup != nil {
			n, b := in.rollup.occupancy()
			out = append(out, uint64(n), uint64(b))
		}
	}
	if s.cfg.Shared {
		stamp(s.instances[NSWorkflow])
		return out
	}
	for _, ns := range Namespaces {
		stamp(s.instances[ns])
	}
	return out
}

func (s *Service) handleStats(ctx context.Context, _ []byte) ([]byte, error) {
	sp := telemetry.LeafSpan(ctx, "soma.stats.handler")
	defer sp.End()
	stamps := s.statsStamps()
	if c := s.statsFrame.Load(); c != nil && slices.Equal(c.stamps, stamps) {
		telQueryCacheHits.Inc()
		return c.frame, nil
	}
	telQueryCacheMisses.Inc()
	stats := map[Namespace]InstanceStats{}
	for _, st := range s.Stats() {
		stats[st.Namespace] = st
	}
	// A publish between statsStamps() and here makes this frame carry data
	// newer than its stamp; that only causes one extra rebuild next request,
	// never a stale hit (the stamp it would need to match is already gone).
	frame := conduit.Marshal(stats).EncodeBinaryStable()
	s.statsFrame.Store(&statsCache{stamps: stamps, frame: frame})
	return frame, nil
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
	// Serve the cached encoded match list for this (snapshot, pattern).
	return in.selectFrame(req.Pattern), nil
}

// ownedFrame encodes resp into a pooled buffer and wraps it as an owned
// mercury response; the transport calls Release once the frame is written,
// recycling the buffer instead of allocating one per request.
func ownedFrame(resp *conduit.Node) (mercury.Response, error) {
	bp := conduit.GetEncodeBuffer()
	*bp = resp.AppendBinary(*bp)
	return mercury.Response{
		Payload: *bp,
		Release: func() { conduit.PutEncodeBuffer(bp) },
	}, nil
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
