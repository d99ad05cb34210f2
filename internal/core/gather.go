package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// The clustered soma.query, by either of its names (soma.query.delta is the
// same RPC). The member asked is a delta client of every member, itself
// included: per (ns, path) it keeps a gatherMemo holding each member's
// (epoch, gen) stamp and tree, asks every member the name's ".local" twin
// with that member's own stamp and patch: true, re-merges only the union
// children some member changed, and answers the caller from the union with a
// solo service's three answers (§4f) under a stamp of the memo's own. A
// caller's protocol is the same solo and clustered. The member → stamp vector
// lives here, beside the member trees, because a caller holding only the
// union could not apply one member's patch: a child several members hold
// needs every member's version of it.

var (
	// Member answers gathered, by kind; union children re-merged one by one;
	// unions rebuilt whole; memos dropped to make room for another path's,
	// past which a poll of the dropped path re-asks every member stampless.
	telScatterUnchanged = telemetry.Default().Counter("cluster.scatter.delta_unchanged")
	telScatterPartial   = telemetry.Default().Counter("cluster.scatter.delta_partial")
	telScatterFull      = telemetry.Default().Counter("cluster.scatter.delta_full")
	telScatterMerged    = telemetry.Default().Counter("cluster.scatter.children_merged")
	telScatterRebuilds  = telemetry.Default().Counter("cluster.scatter.rebuilds")
	telMemosEvicted     = telemetry.Default().Counter("cluster.scatter.memos_evicted")
)

// gatherMemo is what a member keeps to answer soma.query for one (ns, path)
// for the whole fleet.
type gatherMemo struct {
	ns   Namespace
	path string

	// mu is held across a gather. started counts the gathers begun and done
	// is the count of the last one that succeeded, so a poll that waited out
	// a gather begun after it arrived answers from that gather's union.
	mu      sync.Mutex
	started atomic.Uint64
	done    uint64

	// from lists the members of the last gather in merge order; shards[i] is
	// from[i]'s shard.
	from   []string
	shards []*shard
	// The union's stamp: epoch drawn when the memo was made, gen bumped
	// whenever the union changed.
	epoch, gen uint64
	// The union is never kept whole: a full answer unions the shards afresh
	// (conduit.MergeNodes). What a patch answer needs is kept instead: the
	// union's child count (-1 when it is not an object that gathers may patch),
	// the gen of its last rebuild, and every child re-merged since, at its
	// newest version, with the union gen that re-merged it last.
	count       int
	rebuilt     uint64
	remerged    *conduit.Node
	remergedGen map[string]uint64
}

// shard is one member's shard as a gather memo holds it, under the member's
// stamp: a tree — this member's own always is, it never crosses the wire — or
// the raw encoding a peer's full answer carried (tree nil) until a patch or
// the union needs it decoded: a run of full answers, such as the polls beside
// a bulk load, is unioned as bytes.
type shard struct {
	deltaMemo
	raw []byte
}

// decode gives a raw shard its tree.
func (s *shard) decode() error {
	if s.tree != nil {
		return nil
	}
	t, err := conduit.DecodeBinary(conduit.AppendRawFrame(nil, s.raw))
	if err != nil {
		return err
	}
	if childless(t) {
		return errChildless
	}
	s.tree, s.raw = t, nil
	return nil
}

// maxGatherMemos bounds the gather memos a member keeps, one per (ns, path).
const maxGatherMemos = 16

// gatherMemo returns the memo of (ns, path), made if absent, as the most
// recently used; past maxGatherMemos memos the least recently used goes,
// counted in cluster.scatter.memos_evicted.
func (cl *svcCluster) gatherMemo(ns Namespace, path string) *gatherMemo {
	cl.memoMu.Lock()
	defer cl.memoMu.Unlock()
	i := slices.IndexFunc(cl.memos, func(m *gatherMemo) bool { return m.ns == ns && m.path == path })
	var m *gatherMemo
	switch {
	case i >= 0:
		m = cl.memos[i]
	case len(cl.memos) < maxGatherMemos:
		m = &gatherMemo{ns: ns, path: path, epoch: newEpoch()}
		cl.memos = append(cl.memos, nil)
		i = len(cl.memos) - 1
	default:
		telMemosEvicted.Inc()
		m = &gatherMemo{ns: ns, path: path, epoch: newEpoch()}
		i = len(cl.memos) - 1
	}
	copy(cl.memos[1:i+1], cl.memos[:i])
	cl.memos[0] = m
	return m
}

// queryDelta answers soma.query, by either name, for the whole fleet from the
// memo of the (ns, path) asked, gathered afresh for this poll.
func (cl *svcCluster) queryDelta(ctx context.Context, row *rpcRow, payload []byte) (mercury.Response, error) {
	q, err := cl.svc.parseQuery(payload)
	if err != nil {
		return mercury.Response{}, err
	}
	start := time.Now()
	defer telScatterLatency.ObserveSince(start)
	m := cl.gatherMemo(q.ns, q.path)
	arrived := m.started.Load()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done <= arrived {
		if err := m.gather(ctx, cl, row); err != nil {
			return mercury.Response{}, err
		}
	}
	return m.answer(q)
}

// errShardMismatch marks a member's answer that does not apply to the memo
// of its shard.
var errShardMismatch = errors.New("answer does not apply to the memo of its shard")

// gather asks every member for its shard against the stamp the memo holds
// for it and brings the union up to date, all or nothing: the memo changes
// only once every member's answer has applied. An answer that does not apply
// drops the stamps for one more gather, the way a client resyncs; a second
// failure fails the read, naming the member.
func (m *gatherMemo) gather(ctx context.Context, cl *svcCluster, row *rpcRow) error {
	telScatterFanouts.Inc()
	seq := m.started.Add(1)
	from := cl.mergeOrder()
	shards, kinds, patches, err := m.ask(ctx, cl, row, from, true)
	if errors.Is(err, errShardMismatch) {
		shards, kinds, patches, err = m.ask(ctx, cl, row, from, false)
	}
	if err != nil {
		return err
	}
	start := time.Now()
	sp := telemetry.LeafSpanAt(ctx, "cluster.scatter.merge", start)
	err = m.merge(from, shards, kinds, patches)
	now := time.Now()
	telScatterMerge.Observe(now.Sub(start))
	sp.EndAt(now)
	if err == nil {
		m.done = seq
	}
	return err
}

// shard returns the member at addr's shard, nil when there is none to
// present a stamp from.
func (m *gatherMemo) shard(addr string) *shard {
	if i := slices.Index(m.from, addr); i >= 0 && m.shards[i].epoch != 0 {
		return m.shards[i]
	}
	return nil
}

// ask gathers every member's shard against the stamp the memo holds for it
// (with none when !stamped) as its answer to a soma.query*.local poll —
// patch: true when stamped. Each peer's answer comes over the wire and is read
// by memberShard; this member's own is Service.queryAnswer's decision, the
// one its own handler encodes, read as a tree by applyShard. It returns the
// members' shards under their new stamps, the kind of each answer and each
// patch (nil unless the member answered with one).
func (m *gatherMemo) ask(ctx context.Context, cl *svcCluster, row *rpcRow, from []string, stamped bool) (shards []*shard, kinds []deltaKind, patches []*conduit.Node, err error) {
	prev := make([]*shard, len(from))
	if stamped {
		for i, addr := range from {
			prev[i] = m.shard(addr)
		}
	}
	reqs := make([][]byte, len(from)-1)
	for i := range reqs {
		req := conduit.NewNode()
		req.SetString("ns", string(m.ns))
		req.SetString("path", m.path)
		if p := prev[i+1]; p != nil {
			req.SetInt("epoch", p.epoch)
			req.SetInt("gen", p.gen)
			req.SetBool("patch", true)
		}
		reqs[i] = req.EncodeBinary()
	}
	wait := cl.callPeers(ctx, row.name+".local", from[1:], reqs)
	var epoch, gen uint64
	if p := prev[0]; p != nil {
		epoch, gen = uint64(p.epoch), uint64(p.gen)
	}
	own, sn, err := cl.svc.queryAnswer(m.ns, m.path, epoch, gen, prev[0] != nil)
	frames, errs := wait()
	if err != nil {
		return nil, nil, nil, err
	}
	if own == nil {
		own = unchangedAnswer(sn.epoch, sn.gen)
	}
	shards = make([]*shard, len(from))
	kinds = make([]deltaKind, len(from))
	patches = make([]*conduit.Node, len(from))
	for i := range from {
		p := part{from: from[i]}
		if i == 0 {
			shards[i], kinds[i], patches[i], err = applyShard(prev[i], own)
		} else {
			if p.frame, err = frames[i-1], errs[i-1]; err != nil {
				return nil, nil, nil, p.bad(err)
			}
			telScatterBytes.Add(int64(len(p.frame)))
			shards[i], kinds[i], patches[i], err = memberShard(prev[i], p.frame)
		}
		if err != nil {
			return nil, nil, nil, p.bad(err)
		}
	}
	for _, k := range kinds {
		switch k {
		case deltaUnchanged:
			telScatterUnchanged.Inc()
		case deltaPartial:
			telScatterPartial.Inc()
		default:
			telScatterFull.Inc()
		}
	}
	return shards, kinds, patches, nil
}

// answerFields are the fields of a soma.query answer that tell a full
// one and carry it.
var answerFields = []string{"epoch", "gen", "unchanged", "patch", "data"}

// emptyNode is the raw encoding of an empty node.
var emptyNode = []byte{byte(conduit.KindEmpty)}

// memberShard reads a peer's soma.query*.local answer to a poll that
// presented prev's stamp (prev nil: none), telling its kind as applyDelta
// does. A full answer is kept raw. An answer that may be "unchanged" or a
// patch is decoded and read by applyShard.
func memberShard(prev *shard, frame []byte) (*shard, deltaKind, *conduit.Node, error) {
	var f [5][]byte
	if err := conduit.SliceFields(frame, answerFields, f[:]); err != nil {
		return nil, 0, nil, err
	}
	if f[2] != nil || f[3] != nil {
		resp, err := conduit.DecodeBinary(frame)
		if err != nil {
			return nil, 0, nil, err
		}
		if sh, kind, patch, err := applyShard(prev, resp); err != nil || kind != deltaFull {
			return sh, kind, patch, err
		}
	}
	epoch, _ := conduit.RawInt(f[0])
	gen, _ := conduit.RawInt(f[1])
	data := f[4]
	if data == nil {
		data = emptyNode
	}
	return &shard{deltaMemo: deltaMemo{epoch: epoch, gen: gen}, raw: data}, deltaFull, nil, nil
}

// applyShard reads a member's answer as a tree, resp, to a poll that
// presented prev's stamp (prev nil: none) through applyDelta. An "unchanged"
// or a patch must apply to prev — a raw prev is decoded for a patch first; a
// full answer's data becomes the shard's tree.
func applyShard(prev *shard, resp *conduit.Node) (*shard, deltaKind, *conduit.Node, error) {
	var held *deltaMemo
	if prev != nil {
		if resp.Has("patch") {
			if err := prev.decode(); err != nil {
				return nil, 0, nil, err
			}
		}
		held = &prev.deltaMemo
	}
	next, kind, ok := applyDelta(held, resp)
	if !ok {
		return nil, 0, nil, fmt.Errorf("%w: %s", errShardMismatch, kind)
	}
	switch kind {
	case deltaUnchanged:
		return prev, kind, nil, nil
	case deltaPartial:
		patch, _ := resp.Get("patch")
		for _, name := range patch.ChildNames() {
			if childless(patch.Child(name)) {
				return nil, 0, nil, errChildless
			}
		}
		return &shard{deltaMemo: *next}, kind, patch, nil
	}
	return &shard{deltaMemo: *next}, kind, nil, nil
}

// errChildless rejects a member's tree that holds an object without
// children. No member's snapshot does — a published empty object is stored
// as an empty node — and the union's fold would keep one where Node.Merge,
// and so the byte union of full answers, holds an empty node.
var errChildless = errors.New("soma: shard holds an object without children")

// childless reports whether n holds an object without children.
func childless(n *conduit.Node) bool {
	if n.Kind() != conduit.KindObject {
		return false
	}
	names := n.ChildNames()
	for _, name := range names {
		if childless(n.Child(name)) {
			return true
		}
	}
	return len(names) == 0
}

// merge makes the gathered shards the memo's and brings the union's record
// up to date with them, bumping its gen when it changed; on an error the memo
// is left as it was. The union is the fold of the shards in merge order. It
// is rebuilt — no patch reaches across — when the members differ from the
// last gather's, a member answered in full, or a patch added a child name its
// member did not hold: a name's place in the fold depends on which members
// hold it. Otherwise only the children some member's patch named changed,
// and each is re-merged as the fold of the members' versions of it (unionOf)
// — the fold of objects holds, at each child, the fold of the members'
// versions of that child — and recorded under the new gen. That takes every
// shard as a tree and the union as an object: the first gather that needs no
// rebuild decodes shards a run of full answers left raw, and while a shard is
// not an object (or empty) every change is a rebuild.
func (m *gatherMemo) merge(from []string, shards []*shard, kinds []deltaKind, patches []*conduit.Node) error {
	rebuild := m.gen == 0 || !slices.Equal(from, m.from)
	changed := rebuild
	for i, k := range kinds {
		if k == deltaUnchanged {
			continue
		}
		changed = true
		if k == deltaFull || rebuild || shards[i].tree.NumChildren() != m.shards[i].tree.NumChildren() {
			rebuild = true
		}
	}
	if !changed {
		m.from, m.shards = from, shards
		return nil
	}
	raw := slices.ContainsFunc(shards, func(s *shard) bool { return s.tree == nil })
	if !rebuild || !raw {
		// Trees from here on: decode what a run of full answers left raw.
		for i, s := range shards {
			if err := s.decode(); err != nil {
				return part{from: from[i]}.bad(err)
			}
		}
		raw, rebuild = false, rebuild || m.count < 0
	}
	m.from, m.shards = from, shards
	if rebuild {
		telScatterRebuilds.Inc()
		m.gen++
		m.count, m.rebuilt = -1, m.gen
		m.remerged, m.remergedGen = conduit.NewNode(), map[string]uint64{}
		if !raw {
			m.count = unionCount(shards)
		}
		return nil
	}
	gen, merged := m.gen+1, 0
	versions := make([]*conduit.Node, len(shards))
	for _, patch := range patches {
		if patch == nil {
			continue
		}
		for _, name := range patch.ChildNames() {
			if m.remergedGen[name] == gen {
				continue
			}
			for i, sh := range shards {
				versions[i] = sh.tree.Child(name)
			}
			m.remerged.Attach(name, unionOf(versions))
			m.remergedGen[name] = gen
			merged++
		}
	}
	if merged > 0 {
		telScatterMerged.Add(int64(merged))
		m.gen = gen
	}
	return nil
}

// unionCount is the number of children of the union of shards when every
// shard is a tree, an object or empty, and one is an object; else -1.
func unionCount(shards []*shard) int {
	names := map[string]struct{}{}
	for _, s := range shards {
		switch s.tree.Kind() {
		case conduit.KindEmpty:
		case conduit.KindObject:
			for _, name := range s.tree.ChildNames() {
				names[name] = struct{}{}
			}
		default:
			return -1
		}
	}
	if len(names) == 0 {
		return -1
	}
	return len(names)
}

// unionOf folds trees, nil ones skipped, in order with conduit.MergeCOW —
// what Node.Merge of each in turn into an empty node holds, with everything
// untouched shared — and returns an empty node when all are nil.
func unionOf(trees []*conduit.Node) *conduit.Node {
	var u *conduit.Node
	for _, t := range trees {
		switch {
		case t == nil:
		case u == nil:
			u = t
		default:
			u = conduit.MergeCOW(u, t)
		}
	}
	if u == nil {
		return conduit.NewNode()
	}
	return u
}

// answer is the caller's answer from the union, one of the three a solo
// service gives (§4f): "unchanged" to the current stamp; a patch when the
// caller's stamp is a gen since the last rebuild and fewer than half of the
// union's children were re-merged after it; else the full union.
func (m *gatherMemo) answer(q queryReq) (mercury.Response, error) {
	if q.epoch == m.epoch && q.gen == m.gen {
		telDeltaUnchanged.Inc()
		return ownedFrame(unchangedAnswer(m.epoch, m.gen))
	}
	if patch := m.since(q, (m.count-1)/2); patch != nil {
		return ownedFrame(patchEnvelope(m.epoch, m.gen, q.gen, m.count, patch))
	}
	nodes := make([][]byte, len(m.shards))
	for i, s := range m.shards {
		if nodes[i] = s.raw; s.tree != nil {
			// A shard held as a tree — this member's own, or one a patch
			// reached — is encoded for the union into a pooled buffer.
			tb := getFrameBuf()
			defer putFrameBuf(tb)
			*tb = s.tree.AppendBinary(*tb)
			nodes[i] = (*tb)[4:]
		}
	}
	// The envelope of an empty data child, whose one kind byte the union
	// replaces. The engine releases an owned response on the error path too.
	bp := getFrameBuf()
	*bp = fullAnswer(m.epoch, m.gen, conduit.NewNode()).AppendBinary(*bp)
	var err error
	*bp, err = conduit.MergeNodes((*bp)[:len(*bp)-1], nodes)
	return mercury.Response{Payload: *bp, Release: func() { putFrameBuf(bp) }}, err
}

// since is the union children re-merged after the gen a caller's stamp
// names, as one object, or nil when the record does not reach back to that
// gen or more than limit children were re-merged since.
func (m *gatherMemo) since(q queryReq, limit int) *conduit.Node {
	if !q.patch || q.epoch != m.epoch || m.count < 0 || q.gen < m.rebuilt || q.gen >= m.gen {
		return nil
	}
	patch := conduit.NewNode()
	for _, name := range m.remerged.ChildNames() {
		if m.remergedGen[name] <= q.gen {
			continue
		}
		if patch.NumChildren() == limit {
			return nil
		}
		patch.Attach(name, m.remerged.Child(name))
	}
	return patch
}
