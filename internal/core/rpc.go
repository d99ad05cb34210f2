package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// The soma.* RPC surface, declared once. NewService registers it in a loop,
// serve makes every per-RPC cluster decision from a row's kind, and
// IdempotentRPCs is the readOnly column. DESIGN.md "RPC surface" holds the
// same table in prose (TestRPCTableDocumented keeps the two in step).

// rpcKind is what a clustered member with live peers does with a request.
type rpcKind uint8

const (
	// rpcLocal acts on the member dialled, clustered or not.
	rpcLocal rpcKind = iota
	// rpcPlaced is a write that belongs to the ring owner of its shard key:
	// forwarded there in one hop, handled here when this member is the owner
	// or the owner is unreachable (see forwardPublish).
	rpcPlaced
	// rpcScattered is a read answered with the merge of every live member's
	// answer, so data is found wherever it was ingested: placement is a
	// load-balancing optimization, never a correctness requirement — which is
	// what makes rebalance safe to interrupt.
	rpcScattered
)

// rpcHandler answers one request from this member's own state.
type rpcHandler func(s *Service, ctx context.Context, payload []byte) (mercury.Response, error)

// part is one member's raw answer to a scattered read.
type part struct {
	from  string // the member's address
	frame []byte
}

// bad attributes a frame a merge function rejects to the member it came from:
// a peer's answer is network input.
func (p part) bad(err error) error { return fmt.Errorf("cluster: peer %s: %w", p.from, err) }

// rpcRow declares one RPC. Placed and scattered rows are also registered
// under name+".local", which answers from the member dialled alone — what
// forwards and scatters call (so neither can recurse).
type rpcRow struct {
	name string
	kind rpcKind
	// local answers a local or scattered row from this member's state.
	local rpcHandler
	// place answers a placed row: fleet is the cluster to place the request
	// into, nil when it must be handled here.
	place func(s *Service, ctx context.Context, payload []byte, fleet *svcCluster) (mercury.Response, error)
	// merge folds a scattered row's answers, this member's first and then the
	// peers' in address order, so colliding entries resolve the same way
	// whichever peer answered first. The frames are read-only.
	merge func(ctx context.Context, parts []part) (mercury.Response, error)
	// scatter, when set, answers a scattered row for the whole fleet in place
	// of scatter and merge: the query rows ask every member for what changed
	// since its own stamp (gather.go).
	scatter func(cl *svcCluster, ctx context.Context, row *rpcRow, payload []byte) (mercury.Response, error)
	// tolerate names the failures that are an answer in their own right
	// ("nothing here"): that member is skipped. Any other failure fails the
	// read — a partial answer silently missing a live member's shard would
	// defeat "reads find everything".
	tolerate func(error) bool
	// span names the handler span serve opens on placed and scattered rows;
	// localSpan, when set, replaces it for name+".local".
	span, localSpan string
	// readOnly rows are safe to retry after the request may have reached the
	// server (IdempotentRPCs).
	readOnly bool
	// blocking rows occupy their handler for a long time by design.
	blocking bool
}

var rpcTable = []rpcRow{
	{name: RPCPublish, kind: rpcPlaced,
		place: func(s *Service, ctx context.Context, payload []byte, fleet *svcCluster) (mercury.Response, error) {
			out, err := s.publishEnvelope(ctx, payload, fleet, false)
			return mercury.Response{Payload: out}, err
		},
		span: "soma.publish.handler", localSpan: "soma.publish.local.handler"},
	{name: RPCPublishBatch, local: plain((*Service).handlePublishBatch)},
	{name: RPCQuery, kind: rpcScattered, local: (*Service).handleQuery, scatter: (*svcCluster).queryDelta,
		span: "soma.query.handler", readOnly: true},
	{name: RPCQueryDelta, kind: rpcScattered, local: (*Service).handleQuery, scatter: (*svcCluster).queryDelta,
		span: "soma.query.delta.handler", readOnly: true},
	{name: RPCSeries, kind: rpcScattered, local: (*Service).handleSeries, merge: mergeSeriesAnswers,
		tolerate: isNoSeries, readOnly: true},
	{name: RPCAlertList, kind: rpcScattered, local: plain((*Service).handleAlertList), merge: mergeAlertLists,
		readOnly: true},
	{name: RPCSelect, local: plain((*Service).handleSelect), readOnly: true},
	{name: RPCStats, local: plain((*Service).handleStats), readOnly: true},
	{name: RPCHealth, local: plain((*Service).handleHealth), readOnly: true},
	{name: RPCTelemetry, local: (*Service).handleTelemetry, readOnly: true},
	{name: RPCTraceList, local: (*Service).handleTraceList, readOnly: true},
	{name: RPCTraceGet, local: (*Service).handleTraceGet, readOnly: true},
	{name: RPCRing, local: plain((*Service).handleRing), readOnly: true},
	{name: RPCReset, local: plain((*Service).handleReset)},
	{name: RPCShutdown, local: plain((*Service).handleShutdown)},
	{name: RPCAlertSet, local: plain((*Service).handleAlertSet)},
	{name: RPCAlertRemove, local: plain((*Service).handleAlertRemove)},
	// Ping and handoff reject until JoinCluster.
	{name: RPCPeerPing, local: plain((*Service).handlePeerPing)},
	{name: RPCHandoff, local: plain((*Service).handleHandoff)},
	// A retried capture would double-start a multi-second CPU profile (or
	// burn the one-at-a-time gate): never readOnly.
	{name: RPCProfile, local: plain((*Service).handleProfile), blocking: true},
	// The update stream (subscribe.go), member-local. A retried recv would lose
	// the batch the first attempt drained: never readOnly.
	{name: rpcUpdatesSub, local: plain((*Service).handleUpdatesSub)},
	{name: rpcUpdatesRecv, local: (*Service).handleUpdatesRecv, blocking: true},
	{name: rpcUpdatesUnsub, local: plain((*Service).handleUpdatesUnsub)},
}

// plain adapts a handler whose response needs no release.
func plain(h func(*Service, context.Context, []byte) ([]byte, error)) rpcHandler {
	return func(s *Service, ctx context.Context, payload []byte) (mercury.Response, error) {
		out, err := h(s, ctx, payload)
		return mercury.Response{Payload: out}, err
	}
}

// IdempotentRPCs lists the service RPCs that are safe to retry after a
// request may have reached the server — the read-only surface, ".local"
// names included. Use it with mercury.IdempotentSet when building a
// CallPolicy with retries.
func IdempotentRPCs() []string {
	var names []string
	for _, row := range rpcTable {
		if row.readOnly {
			names = append(names, row.name)
		}
		if row.readOnly && row.kind != rpcLocal {
			names = append(names, row.name+".local")
		}
	}
	return names
}

// serve builds the engine handler for a row: the row's own answer when the
// instance is solo, has no live peer, or was called by the row's ".local"
// name (asLocal); otherwise the request is placed or scattered.
func (s *Service) serve(row *rpcRow, asLocal bool) mercury.OwnedHandler {
	if row.kind == rpcLocal {
		return func(ctx context.Context, payload []byte) (mercury.Response, error) {
			return row.local(s, ctx, payload)
		}
	}
	span := row.span
	if asLocal && row.localSpan != "" {
		span = row.localSpan
	}
	return func(ctx context.Context, payload []byte) (mercury.Response, error) {
		fleet := s.cl.Load()
		if asLocal || (fleet != nil && fleet.tracker.Ring().Len() < 2) {
			fleet = nil // no live peer
		}
		if span != "" {
			// Forward and scatter calls, and the stripe append, are its children.
			var sp *telemetry.Span
			ctx, sp = telemetry.ChildSpan(ctx, span)
			defer sp.End()
		}
		switch {
		case row.kind == rpcPlaced:
			return row.place(s, ctx, payload, fleet)
		case fleet == nil:
			return row.local(s, ctx, payload)
		case row.scatter != nil:
			return row.scatter(fleet, ctx, row, payload)
		default:
			return fleet.scatter(ctx, row, payload)
		}
	}
}

// scatterParallel bounds the concurrent peer calls of one scattered read.
const scatterParallel = 4

// scatter answers a scattered row for the whole fleet. The request goes to
// every live peer's ".local" verbatim, with bounded parallelism, while this
// member's own handler answers for its shard; merge then gets the raw frames.
// Peer responses are ours to keep: the TCP transport allocates one per frame,
// and the inproc transport hands over either a copy or a frame the peer never
// writes to again (such as a snapshot's "unchanged" answer), so merge may hold
// subslices but must never write through them. A failure fails the read —
// this member's own error comes back unwrapped, so solo and clustered answers
// agree on it; a peer's carries the peer's address (callers retry, and a
// truly dead peer leaves the ring within cluster.DefaultPingMisses intervals)
// — unless the row tolerates it. When every member's answer was tolerated,
// this member's error is the answer.
func (cl *svcCluster) scatter(ctx context.Context, row *rpcRow, payload []byte) (mercury.Response, error) {
	telScatterFanouts.Inc()
	start := time.Now()
	defer telScatterLatency.ObserveSince(start)
	from := cl.mergeOrder()
	reqs := make([][]byte, len(from)-1)
	for i := range reqs {
		reqs[i] = payload
	}
	wait := cl.callPeers(ctx, row.name+".local", from[1:], reqs)
	local, err := row.local(cl.svc, ctx, payload)
	frames, errs := wait()
	if local.Release != nil {
		defer local.Release() // merge output never aliases its input
	}
	frames, errs = append([][]byte{local.Payload}, frames...), append([]error{err}, errs...)
	parts := make([]part, 0, len(from))
	for i, err := range errs {
		p := part{from[i], frames[i]}
		switch {
		case err == nil:
			if i > 0 {
				telScatterBytes.Add(int64(len(p.frame)))
			}
			parts = append(parts, p)
		case row.tolerate != nil && row.tolerate(err):
		case i == 0:
			return mercury.Response{}, err
		default:
			return mercury.Response{}, p.bad(err)
		}
	}
	if len(parts) == 0 {
		return mercury.Response{}, errs[0]
	}
	return row.merge(ctx, parts)
}

// mergeOrder lists the members a scattered read asks, in merge order: this
// member, then its live peers by address (ring members are sorted).
func (cl *svcCluster) mergeOrder() []string {
	from := []string{cl.self.Addr}
	for _, m := range cl.tracker.Ring().Members() {
		if m.Addr != cl.self.Addr {
			from = append(from, m.Addr)
		}
	}
	return from
}

// callPeers calls rpc on every peer of to — reqs[i] to to[i] — with bounded
// parallelism, in the background; wait returns the answers. The requests
// must stay unmodified until wait has returned.
func (cl *svcCluster) callPeers(ctx context.Context, rpc string, to []string, reqs [][]byte) (wait func() ([][]byte, []error)) {
	frames := make([][]byte, len(to))
	errs := make([]error, len(to))
	sem := make(chan struct{}, scatterParallel)
	var wg sync.WaitGroup
	for i := range to {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ep, err := cl.endpoint(to[i])
			if err == nil {
				frames[i], err = ep.Call(ctx, rpc, reqs[i])
			}
			errs[i] = err
		}(i)
	}
	return func() ([][]byte, []error) {
		wg.Wait()
		return frames, errs
	}
}

// frameBufPool recycles the buffers response frames are encoded in
// (ownedFrame): whole-tree soma.query answers, a member's own and a gather's
// full union (gatherMemo.answer), run to hundreds of KiB each, too large for
// conduit's encode pool, which keeps nothing above 64 KiB.
var frameBufPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// maxPooledFrameBuf bounds what goes back into frameBufPool.
const maxPooledFrameBuf = 4 << 20

func getFrameBuf() *[]byte {
	bp := frameBufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledFrameBuf {
		frameBufPool.Put(bp)
	}
}

// mergeSeriesAnswers unions soma.series answers: single-key answers merge raw
// points by time and rollup buckets by window start (mergeSeries), pattern
// answers union their key lists.
func mergeSeriesAnswers(_ context.Context, parts []part) (mercury.Response, error) {
	var series []Series
	keys := map[string]struct{}{}
	for _, p := range parts {
		resp, err := conduit.DecodeBinary(p.frame)
		if err != nil {
			return mercury.Response{}, p.bad(err)
		}
		if _, ok := resp.StringVal("key"); ok {
			series = append(series, decodeSeriesResp(resp))
			continue
		}
		var part []string
		if err := conduit.Unmarshal(resp, &part); err != nil {
			return mercury.Response{}, p.bad(err)
		}
		for _, k := range part {
			keys[k] = struct{}{}
		}
	}
	if len(series) > 0 {
		return ownedFrame(encodeSeriesResp(mergeSeries(series[0].Key, series[0].Level, series)))
	}
	return ownedFrame(conduit.Marshal(sortedKeys(keys)))
}

// isNoSeries reports whether a member's soma.series failure is "no such
// series" — "no data here", which must not hide the owner's answer. A peer's
// travels as a remote-failure string.
func isNoSeries(err error) bool {
	return errors.Is(err, ErrNoSeries) ||
		(errors.Is(err, mercury.ErrRemoteFailed) && strings.Contains(err.Error(), "no such series"))
}

// mergeAlertLists unions soma.alert.list answers: rules dedupe by name,
// standings by (rule, ns, key) preferring a firing answer (any shard still
// judging the series as firing keeps the alert visible), then the most recent
// transition.
func mergeAlertLists(_ context.Context, parts []part) (mercury.Response, error) {
	ruleByName := map[string]AlertRule{}
	stateByKey := map[string]AlertState{}
	for _, p := range parts {
		var part alertList
		if err := unmarshalFrame(p.frame, &part); err != nil {
			return mercury.Response{}, p.bad(err)
		}
		for _, r := range part.Rules {
			if _, ok := ruleByName[r.Name]; !ok {
				ruleByName[r.Name] = r
			}
		}
		for _, st := range part.States {
			k := st.Rule + "\x00" + string(st.NS) + "\x00" + st.Key
			prev, ok := stateByKey[k]
			if !ok || (st.Firing && !prev.Firing) || (st.Firing == prev.Firing && st.Since > prev.Since) {
				stateByKey[k] = st
			}
		}
	}
	rules := make([]AlertRule, 0, len(ruleByName))
	for _, name := range sortedKeys(ruleByName) {
		rules = append(rules, ruleByName[name])
	}
	states := make([]AlertState, 0, len(stateByKey))
	for _, k := range sortedKeys(stateByKey) {
		states = append(states, stateByKey[k])
	}
	return mercury.Response{Payload: conduit.Marshal(alertList{rules, states}).EncodeBinary()}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
