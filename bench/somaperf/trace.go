package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"github.com/hpcobs/gosoma/internal/cluster"
	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/gateway"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// The traced run's replay. In this process, on one goroutine, the first
// seconds of the workload's own generated input (same seed) are pushed
// through each layer's public functions in pipeline order, with a span —
// name, start, end, parent, operation id — recorded around every call from
// the harness side. Spans live in memory and are written to
// bench/out/trace_<workload>.json when the replay ends. A layer's self time
// is its span minus its children. Stages that have no public entry point of
// their own (stripe append, rollup fold, alert evaluation, fan-out) are
// measured by ladder: the same batches into Service.PublishBatch on four
// in-process services — rollups off; on; plus a rule; plus a subscriber —
// each rung minus the one below. The end-to-end runs carry none of this.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // spans of one operation share it
}

// tracer records spans when on; off, begin and end cost one branch, which
// is what the overhead ratio compares against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes sums, per span name, duration minus the part covered by child
// spans, and counts the spans.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		count[s.Name]++
	}
	return self, count
}

// checkNesting verifies the span file's one structural promise: every
// child span lies inside its parent.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(spans) {
			return fmt.Errorf("span %d (%s) names a parent that does not exist", s.ID, s.Name)
		}
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// Span names. The ladder rungs are siblings; their differences, not their
// nesting, separate the stages.
const (
	spOpPublish   = "op.publish"
	spOpRead      = "op.read"
	spEncode      = "conduit.encode"
	spValidate    = "conduit.validate"
	spDecode      = "conduit.decode"
	spMerge       = "conduit.merge"
	spCallTCP     = "mercury.call.tcp"
	spCallInproc  = "mercury.call.inproc"
	spCallEmpty   = "mercury.call.tcp.empty"
	spRung0       = "core.ladder.r0_rollups_off"
	spRung1       = "core.ladder.r1_rollups_on"
	spRung2       = "core.ladder.r2_rule"
	spRung3       = "core.ladder.r3_subscriber"
	spClient      = "core.client.publish_flush"
	spRebuild     = "core.query.rebuild"
	spQueryCold   = "core.query.cold"
	spQueryHot    = "core.query.hot"
	spQueryDelta  = "core.query.delta_unchanged"
	spSeriesQuery = "core.series.query"
	spRingOwner   = "cluster.ring.owner"
	spClusterRead = "cluster.query.scatter"
	spSoloRead    = "cluster.query.solo"
	spGateMiss    = "gateway.api.miss"
	spGateHit     = "gateway.api.hit"
	spWSPush      = "gateway.ws.push"
	spHarness     = "harness" // replay bookkeeping that belongs to no layer
)

// replayLeafBudget and replaySeconds bound the replayed input: the first
// replaySeconds of the schedule, cut short at replayLeafBudget leaves so
// the wide-tree workload replays in the same few seconds as the others.
const (
	replaySeconds    = 5
	replayLeafBudget = 50000
	coalesce         = 512 // entries per batch: the client coalescer's default MaxLeaves
	// replayHistory bounds each replay service's publish-history ring. Eight
	// services hold the same input in one process; with the default ring
	// (65536 trees each) the replay would mostly measure the kernel faulting
	// in a gigabyte of retained trees.
	replayHistory = 4096
)

// replayOp is one publish operation of the replay: a coalesced batch on the
// batched workloads, a single tree on monitors.
type replayOp struct {
	pubs   []pub
	encs   [][]byte // CDT1 frame per entry
	leaves int
}

type replay struct {
	w   *workload
	tr  *tracer
	ops []replayOp
	// readEvery is how many publish operations separate two read
	// operations, so the replay keeps the workload's write:read mix.
	readEvery int
	readPath  string

	engine    *mercury.Engine
	epTCP     *mercury.Endpoint
	epInproc  *mercury.Endpoint
	rungs     [4]*core.Service
	svcQ      *core.Service // the integrated default-config service reads go to
	pubQ      *core.Client  // the workload's publisher client, into svcQ
	readQ     *core.Client  // a synchronous client of svcQ
	members   []*core.Service
	ring      *cluster.Ring
	readC     *core.Client // a client of cluster member 0
	gw        *gateway.Gateway
	gwClient  *core.Client
	gwServer  *httptest.Server
	ws        *gateway.Conn
	cancelSub func()
	subDone   chan struct{}
	wsSeq     int
	readN     int
	closers   []func()

	// Denominators, accumulated on the traced pass only.
	leaves, pubs, frameBytes, respBytes int
}

// buildReplayInput draws the replayed input from a fresh stream.
func buildReplayInput(w *workload, seed int64) []replayOp {
	st := w.newStream(seed)
	st.beginPaced()
	var ops []replayOp
	var cur replayOp
	total := 0
	for total < replayLeafBudget && st.peekDue() < replaySeconds*1000 {
		p := st.next()
		enc := p.enc
		n := 1
		if p.tree != nil {
			enc = p.tree.EncodeBinary()
			n = p.tree.NumLeaves()
		}
		cur.pubs = append(cur.pubs, p)
		cur.encs = append(cur.encs, enc)
		cur.leaves += n
		total += n
		if !w.batched || len(cur.pubs) == coalesce {
			ops = append(ops, cur)
			cur = replayOp{}
		}
	}
	if len(cur.pubs) > 0 {
		ops = append(ops, cur)
	}
	return ops
}

func newReplay(w *workload, seed int64) (*replay, error) {
	r := &replay{w: w, tr: &tracer{}, ops: buildReplayInput(w, seed), readPath: "LOAD"}
	if w.name == "monitors" {
		r.readPath = "PROC/cn000"
	}
	pubs := 0
	for _, op := range r.ops {
		pubs += len(op.pubs)
	}
	// Reads per publish as scheduled: 1000/readEvery reads a second against
	// rate publishes a second.
	perRead := w.rate * w.readEvery / 1000 // publishes between reads
	r.readEvery = perRead * len(r.ops) / pubs
	if r.readEvery < 1 {
		r.readEvery = 1
	}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	// mercury: a no-op handler reached over loopback TCP and in process.
	r.engine = mercury.NewEngine()
	r.closers = append(r.closers, func() { r.engine.Close() })
	r.engine.Register("somaperf.noop", func(context.Context, []byte) ([]byte, error) { return nil, nil })
	tcpAddr, err := r.engine.Listen("tcp://127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inprocAddr, err := r.engine.Listen(fmt.Sprintf("inproc://somaperf-noop-%d", os.Getpid()))
	if err != nil {
		return nil, err
	}
	if r.epTCP, err = mercury.Lookup(tcpAddr); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.epTCP.Close() })
	if r.epInproc, err = mercury.Lookup(inprocAddr); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.epInproc.Close() })

	// The ladder.
	rule := core.AlertRule{Name: monAlertRule, NS: core.NSHardware, Pattern: monAlertGlob, Op: ">", Threshold: monHotThresh, WindowSec: 1}
	for i := range r.rungs {
		svc := core.NewService(core.ServiceConfig{DisableRollups: i == 0, MaxRecords: replayHistory})
		r.rungs[i] = svc
		r.closers = append(r.closers, func() { svc.Close() })
		if i >= 2 {
			if err := svc.SetAlert(rule); err != nil {
				return nil, err
			}
		}
	}
	ch, cancel, err := r.rungs[3].SubscribeLocal(core.NSHardware)
	if err != nil {
		return nil, err
	}
	r.cancelSub, r.subDone = cancel, make(chan struct{})
	go func() { // drains the rung's subscriber so fan-out delivers rather than drops
		defer close(r.subDone)
		for range ch {
		}
	}()

	// The integrated service and its clients.
	r.svcQ = core.NewService(core.ServiceConfig{MaxRecords: replayHistory})
	r.closers = append(r.closers, func() { r.svcQ.Close() })
	addrQ, err := r.svcQ.Listen("tcp://127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if r.pubQ, err = core.Connect(addrQ, nil); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.pubQ.Close() })
	if w.batched {
		r.pubQ.EnableBatch(core.BatchConfig{})
	}
	if r.readQ, err = core.Connect(addrQ, nil); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.readQ.Close() })

	// A three-member cluster holding the same data by ring placement.
	var addrs []string
	for i := 0; i < 3; i++ {
		// Rollups off: the members are here for ring placement and scatter
		// timing, and three more rollup stores would only add page faults.
		svc := core.NewService(core.ServiceConfig{MaxRecords: replayHistory, DisableRollups: true})
		r.members = append(r.members, svc)
		r.closers = append(r.closers, func() { svc.Close() })
		a, err := svc.Listen("tcp://127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
	}
	for i, svc := range r.members {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		if err := svc.JoinCluster(core.ClusterConfig{Peers: peers}); err != nil {
			return nil, err
		}
	}
	if err := awaitCluster(addrs); err != nil {
		return nil, err
	}
	_, ms := r.members[0].ClusterRing()
	r.ring = cluster.NewRing(ms, cluster.DefaultVnodes)
	if r.readC, err = core.Connect(addrs[0], nil); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.readC.Close() })

	// A gateway over the integrated service, limiter off (the replay is not
	// a client to be throttled), and one WebSocket on a namespace nothing
	// else writes to, so a push is timed on a quiet stream.
	if r.gwClient, err = core.ConnectPolicy(addrQ, nil, gateway.Policy()); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.gwClient.Close() })
	if r.gw, err = gateway.New(gateway.Config{Client: r.gwClient, RatePerSec: -1}); err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.gw.Close() })
	r.gwServer = httptest.NewServer(r.gw.Handler())
	r.closers = append(r.closers, r.gwServer.Close)
	ctx, cancelDial := context.WithTimeout(context.Background(), 5*time.Second)
	r.ws, err = gateway.Dial(ctx, "ws"+strings.TrimPrefix(r.gwServer.URL, "http")+"/ws?ns=application")
	cancelDial()
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { r.ws.Close() })
	ok = true
	return r, nil
}

func (r *replay) close() {
	if r.cancelSub != nil {
		r.cancelSub()
		<-r.subDone
	}
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// pass replays the whole input once.
func (r *replay) pass() error {
	for i := range r.ops {
		r.tr.op = 2 * i
		if err := r.publishOp(&r.ops[i]); err != nil {
			return fmt.Errorf("replay publish op %d: %w", i, err)
		}
		if (i+1)%r.readEvery == 0 || i == len(r.ops)-1 {
			r.tr.op = 2*i + 1
			if err := r.readOp(); err != nil {
				return fmt.Errorf("replay read after op %d: %w", i, err)
			}
		}
	}
	return nil
}

func (r *replay) publishOp(op *replayOp) error {
	t := r.tr
	root := t.begin(spOpPublish)
	defer t.end(root)

	// conduit: encode (tree → bytes on the unbatched path, entries → batch
	// frame on the coalesced one), validate, decode, cached merge.
	id := t.begin(spEncode)
	frame := conduit.AppendBatchHeader(nil)
	for k, p := range op.pubs {
		if p.tree != nil {
			op.encs[k] = p.tree.EncodeBinary()
		}
		frame = conduit.AppendBatchEntryEncoded(frame, string(p.ns), op.encs[k])
	}
	t.end(id)

	id = t.begin(spValidate)
	for _, enc := range op.encs {
		if err := conduit.ValidateBinary(enc); err != nil {
			t.end(id)
			return err
		}
	}
	t.end(id)

	// mercury: the frame to a no-op handler and back.
	id = t.begin(spCallTCP)
	_, err := r.epTCP.Call(context.Background(), "somaperf.noop", frame)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin(spCallInproc)
	_, err = r.epInproc.Call(context.Background(), "somaperf.noop", frame)
	t.end(id)
	if err != nil {
		return err
	}

	id = t.begin(spDecode)
	entries, err := conduit.DecodeBatch(frame)
	t.end(id)
	if err != nil {
		return err
	}

	id = t.begin(spMerge)
	dst := conduit.NewNode()
	var mc conduit.MergeCache
	for _, enc := range op.encs {
		if err := conduit.MergeBinaryIntoCached(dst, enc, &mc); err != nil {
			t.end(id)
			return err
		}
	}
	t.end(id)

	// core: the ladder.
	for i, name := range [4]string{spRung0, spRung1, spRung2, spRung3} {
		if i > 0 {
			// Each service keeps the trees it is handed, so every rung
			// gets its own decode.
			h := t.begin(spHarness)
			entries, err = conduit.DecodeBatch(frame)
			t.end(h)
			if err != nil {
				return err
			}
		}
		id = t.begin(name)
		err = r.rungs[i].PublishBatch(entries, len(frame))
		t.end(id)
		if err != nil {
			return err
		}
	}

	// core: the client path into the integrated service.
	id = t.begin(spClient)
	for k := range op.pubs {
		p := &op.pubs[k]
		if p.tree != nil {
			err = r.pubQ.Publish(p.ns, p.tree)
		} else {
			err = r.pubQ.PublishEncoded(p.ns, op.encs[k])
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = r.pubQ.Flush()
	}
	t.end(id)
	if err != nil {
		return err
	}

	// cluster: place every entry by the ring, then ingest at its owner.
	id = t.begin(spRingOwner)
	byOwner := map[string][]byte{}
	for k, p := range op.pubs {
		m, _ := r.ring.Owner(cluster.ShardKey(string(p.ns), p.path))
		f := byOwner[m.Addr]
		if f == nil {
			f = conduit.AppendBatchHeader(nil)
		}
		byOwner[m.Addr] = conduit.AppendBatchEntryEncoded(f, string(p.ns), op.encs[k])
	}
	t.end(id)
	h := t.begin(spHarness)
	for _, svc := range r.members {
		f := byOwner[svc.Addrs()[0]]
		if f == nil {
			continue
		}
		es, derr := conduit.DecodeBatch(f)
		if derr == nil {
			derr = svc.PublishBatch(es, len(f))
		}
		if derr != nil {
			err = derr
		}
	}
	t.end(h)
	if err != nil {
		return err
	}

	if t.on {
		r.pubs += len(op.pubs)
		r.leaves += op.leaves
		r.frameBytes += len(frame)
	}
	return nil
}

func (r *replay) readOp() error {
	t := r.tr
	root := t.begin(spOpRead)
	defer t.end(root)
	r.readN++

	// core.query: rebuild (fold what was published since the last read),
	// cold encode, hot, delta-unchanged.
	id := t.begin(spRebuild)
	_, err := r.svcQ.Query(core.NSHardware, "")
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin(spQueryCold)
	frame, err := r.svcQ.QueryEncoded(core.NSHardware, r.readPath)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin(spQueryHot)
	_, err = r.svcQ.QueryEncoded(core.NSHardware, r.readPath)
	t.end(id)
	if err != nil {
		return err
	}
	// The snapshot's stamp, read off a small response rather than by
	// decoding the whole tree.
	h := t.begin(spHarness)
	small, err := r.svcQ.QueryEncoded(core.NSHardware, "somaperf/none")
	var epoch, gen int64
	if err == nil {
		var resp *conduit.Node
		if resp, err = conduit.DecodeBinary(small); err == nil {
			epoch, _ = resp.Int("epoch")
			gen, _ = resp.Int("gen")
		}
	}
	t.end(h)
	if err != nil {
		return err
	}
	id = t.begin(spQueryDelta)
	unchanged, err := r.svcQ.QueryDeltaEncoded(core.NSHardware, r.readPath, uint64(epoch), uint64(gen))
	t.end(id)
	if err != nil {
		return err
	}
	if len(unchanged) >= len(frame) && len(frame) > 64 {
		return fmt.Errorf("delta poll with the current stamp returned a full frame (%d bytes)", len(unchanged))
	}

	id = t.begin(spSeriesQuery)
	_, err = r.svcQ.QuerySeries(core.NSHardware, r.seriesKey(), core.Level1s, 0)
	t.end(id)
	if err != nil {
		return err
	}

	// cluster: the same read through member 0's scatter-gather, and solo.
	id = t.begin(spClusterRead)
	_, err = r.readC.Query(core.NSHardware, r.readPath)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin(spSoloRead)
	_, err = r.readQ.Query(core.NSHardware, r.readPath)
	t.end(id)
	if err != nil {
		return err
	}

	// gateway: the JSON API missing then hitting its body cache, and one
	// push from publish to WebSocket frame.
	url := "/api/query?ns=hardware&path=" + r.readPath
	for _, name := range [2]string{spGateMiss, spGateHit} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		id = t.begin(name)
		r.gw.Handler().ServeHTTP(rec, req)
		t.end(id)
		want := "miss"
		if name == spGateHit {
			want = "hit"
		}
		if rec.Code != http.StatusOK || rec.Header().Get("X-Soma-Cache") != want {
			return fmt.Errorf("gateway %s: status %d, cache %q", name, rec.Code, rec.Header().Get("X-Soma-Cache"))
		}
	}
	r.wsSeq++
	marker := conduit.NewNode()
	marker.SetFloat("PROBE/ws", float64(r.wsSeq))
	r.ws.SetReadDeadline(time.Now().Add(freshTimeout))
	id = t.begin(spWSPush)
	err = r.readQ.Publish(core.NSApplication, marker)
	if err == nil {
		for {
			var op byte
			var payload []byte
			if op, payload, err = r.ws.ReadMessage(); err != nil || op == gateway.OpText {
				break
			}
			if op == gateway.OpPing { // the socket's lease: answer or be reaped
				if err = r.ws.WriteMessage(gateway.OpPong, payload); err != nil {
					break
				}
			}
		}
	}
	t.end(id)
	if err != nil {
		return fmt.Errorf("websocket push: %w", err)
	}
	if t.on {
		r.respBytes += len(frame)
	}
	return nil
}

// seriesKey rotates over series the replayed input is known to feed.
func (r *replay) seriesKey() string {
	if r.w.name == "monitors" {
		return monSeriesKey(r.readN%monNodes, r.readN%monCores, "user")
	}
	return fmt.Sprintf("LOAD/cn%05d/s%02d", r.readN%8, r.readN%16)
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

// layerMetrics names every per-layer metric, in reporting order, with its
// unit and which way is better — the per_layer list of BENCHMARK.json.
var layerMetrics = []struct{ name, unit, better string }{
	{"conduit.encode_ns_per_leaf", "ns", "lower"},
	{"conduit.encode_ns_per_KiB", "ns", "lower"},
	{"conduit.validate_ns_per_leaf", "ns", "lower"},
	{"conduit.decode_ns_per_leaf", "ns", "lower"},
	{"conduit.decode_alloc_B_per_leaf", "B", "lower"},
	{"conduit.merge_ns_per_leaf", "ns", "lower"},
	{"mercury.rtt_tcp_us", "us", "lower"},
	{"mercury.rtt_inproc_us", "us", "lower"},
	{"mercury.frame_ns_per_KiB", "ns", "lower"},
	{"core.client.leaves_per_flush", "count", "higher"},
	{"core.client.backpressure_retries", "count", "lower"},
	{"core.client.wire_B_per_pub", "B", "lower"},
	{"core.ingest.append_ns_per_leaf", "ns", "lower"},
	{"core.series.fold_ns_per_leaf", "ns", "lower"},
	{"core.series.dropped", "count", "lower"},
	{"core.series.query_us", "us", "lower"},
	{"core.alerts.eval_ns_per_leaf", "ns", "lower"},
	{"core.subscribe.fanout_ns_per_pub", "ns", "lower"},
	{"zmq.sub_dropped", "count", "lower"},
	{"core.query.rebuild_ms", "ms", "lower"},
	{"core.query.hot_us", "us", "lower"},
	{"core.query.delta_unchanged_us", "us", "lower"},
	{"core.query.resp_KiB", "KiB", "lower"},
	{"cluster.ring_owner_ns", "ns", "lower"},
	{"cluster.forward_frac", "ratio", "lower"},
	{"cluster.shard_skew", "ratio", "lower"},
	{"cluster.scatter_merge_ms", "ms", "lower"},
	{"gateway.api_miss_us", "us", "lower"},
	{"gateway.api_hit_us", "us", "lower"},
	{"gateway.cache_hit_ratio", "ratio", "higher"},
	{"gateway.ws_push_us", "us", "lower"},
	{"gateway.ws_dropped", "count", "lower"},
	{"run.alloc_B_per_pub", "B", "lower"},
	{"run.allocs_per_pub", "count", "lower"},
	{"run.gc_cpu_frac", "ratio", "lower"},
	{"run.trace_overhead_ratio", "ratio", "lower"},
	{"read_p95_ms", "ms", "lower"},
	{"probe.ack_p99_ms", "ms", "lower"},
	{"probe.fresh_p95_ms", "ms", "lower"},
	{"probe.fresh_p99_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.late_frac", "ratio", "lower"},
	{"gen.backlog_end", "count", "lower"},
	{"run.fail_frac", "ratio", "lower"},
}

// inPath lists, per workload, the span names its operations traverse in the
// shipped fleet; the share table is taken over these. Everything else is
// still measured — the metrics above are printed on every workload — but a
// gateway span says nothing about where firehose's time goes.
var inPath = map[string][]string{
	"firehose":  {spEncode, spValidate, spCallTCP, spDecode, "core.ingest.append", "core.series.fold", spRebuild, spQueryCold, spQueryHot},
	"monitors":  {spEncode, spValidate, spCallTCP, spDecode, "core.ingest.append", "core.series.fold", "core.alerts.eval", "core.subscribe.fanout", spSeriesQuery},
	"dashboard": {spEncode, spValidate, spCallTCP, spDecode, "core.ingest.append", "core.series.fold", "core.subscribe.fanout", spRebuild, spQueryCold, spQueryHot, spQueryDelta, spSeriesQuery, spGateMiss, spGateHit, spWSPush},
	"cluster3":  {spEncode, spValidate, spCallTCP, spDecode, "core.ingest.append", "core.series.fold", spRebuild, spQueryCold, spQueryHot, spRingOwner, spClusterRead},
}

func nonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

func per(total time.Duration, n int, unit time.Duration) float64 {
	if n <= 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

// runReplay warms the layers with one pass, replays once with span
// recording off and once with it on, and returns the replay's share of the
// per-layer metrics plus the layer share table.
func (e *env) runReplay(w *workload, seed int64) (map[string]float64, error) {
	r, err := newReplay(w, seed)
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	defer r.close()
	if err := r.pass(); err != nil { // warm: connections, pools, first-sight series
		return nil, err
	}

	// Untraced pass: the wall time spans are compared against, and the
	// allocation and GC accounting of the pipeline itself.
	var m0, m1 runtime.MemStats
	gc0, cpu0 := gcCPUSeconds()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := r.pass(); err != nil {
		return nil, err
	}
	untraced := time.Since(start)
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPUSeconds()
	pubs := 0
	for _, op := range r.ops {
		pubs += len(op.pubs)
	}

	// decode_alloc: bytes allocated by decoding every frame once.
	frames := make([][]byte, len(r.ops))
	leaves := 0
	for i, op := range r.ops {
		f := conduit.AppendBatchHeader(nil)
		for k, p := range op.pubs {
			f = conduit.AppendBatchEntryEncoded(f, string(p.ns), op.encs[k])
		}
		frames[i] = f
		leaves += op.leaves
	}
	var d0, d1 runtime.MemStats
	runtime.ReadMemStats(&d0)
	for _, f := range frames {
		if _, err := conduit.DecodeBatch(f); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&d1)

	// Empty-payload round trips, for the per-KiB framing cost.
	r.tr.on, r.tr.t0, r.tr.op = true, time.Now(), -1
	for i := 0; i < 64; i++ {
		id := r.tr.begin(spCallEmpty)
		_, err := r.epTCP.Call(context.Background(), "somaperf.noop", nil)
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	start = time.Now()
	if err := r.pass(); err != nil {
		return nil, err
	}
	traced := time.Since(start)
	r.tr.on = false

	if err := checkNesting(r.tr.spans); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(e.outDir, "trace_"+w.name+".json")
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, r.tr.spans})
	if err == nil {
		err = os.WriteFile(spanFile, body, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("write span file: %w", err)
	}

	self, count := selfTimes(r.tr.spans)
	// The ladder: each rung minus the one below.
	self["core.ingest.append"] = self[spRung0]
	self["core.series.fold"] = nonNeg(self[spRung1] - self[spRung0])
	self["core.alerts.eval"] = nonNeg(self[spRung2] - self[spRung1])
	self["core.subscribe.fanout"] = nonNeg(self[spRung3] - self[spRung2])

	frameKiB := float64(r.frameBytes) / 1024
	rttFull := per(self[spCallTCP], count[spCallTCP], time.Microsecond)
	rttEmpty := per(self[spCallEmpty], count[spCallEmpty], time.Microsecond)
	perFrameKiB := frameKiB / float64(count[spCallTCP])
	vals := map[string]float64{
		"conduit.encode_ns_per_leaf":       per(self[spEncode], r.leaves, time.Nanosecond),
		"conduit.encode_ns_per_KiB":        float64(self[spEncode]) / frameKiB,
		"conduit.validate_ns_per_leaf":     per(self[spValidate], r.leaves, time.Nanosecond),
		"conduit.decode_ns_per_leaf":       per(self[spDecode], r.leaves, time.Nanosecond),
		"conduit.decode_alloc_B_per_leaf":  float64(d1.TotalAlloc-d0.TotalAlloc) / float64(leaves),
		"conduit.merge_ns_per_leaf":        per(self[spMerge], r.leaves, time.Nanosecond),
		"mercury.rtt_tcp_us":               rttFull,
		"mercury.rtt_inproc_us":            per(self[spCallInproc], count[spCallInproc], time.Microsecond),
		"mercury.frame_ns_per_KiB":         1000 * (rttFull - rttEmpty) / perFrameKiB,
		"core.ingest.append_ns_per_leaf":   per(self["core.ingest.append"], r.leaves, time.Nanosecond),
		"core.series.fold_ns_per_leaf":     per(self["core.series.fold"], r.leaves, time.Nanosecond),
		"core.series.query_us":             per(self[spSeriesQuery], count[spSeriesQuery], time.Microsecond),
		"core.alerts.eval_ns_per_leaf":     per(self["core.alerts.eval"], r.leaves, time.Nanosecond),
		"core.subscribe.fanout_ns_per_pub": per(self["core.subscribe.fanout"], r.pubs, time.Nanosecond),
		"core.query.rebuild_ms":            per(self[spRebuild], count[spRebuild], time.Millisecond),
		"core.query.hot_us":                per(self[spQueryHot], count[spQueryHot], time.Microsecond),
		"core.query.delta_unchanged_us":    per(self[spQueryDelta], count[spQueryDelta], time.Microsecond),
		"core.query.resp_KiB":              float64(r.respBytes) / 1024 / float64(count[spQueryCold]),
		"cluster.ring_owner_ns":            per(self[spRingOwner], r.pubs, time.Nanosecond),
		"cluster.scatter_merge_ms": per(nonNeg(self[spClusterRead]-self[spSoloRead]), count[spClusterRead],
			time.Millisecond),
		"gateway.api_miss_us":      per(self[spGateMiss], count[spGateMiss], time.Microsecond),
		"gateway.api_hit_us":       per(self[spGateHit], count[spGateHit], time.Microsecond),
		"gateway.ws_push_us":       per(self[spWSPush], count[spWSPush], time.Microsecond),
		"run.alloc_B_per_pub":      float64(m1.TotalAlloc-m0.TotalAlloc) / float64(pubs),
		"run.allocs_per_pub":       float64(m1.Mallocs-m0.Mallocs) / float64(pubs),
		"run.gc_cpu_frac":          (gc1 - gc0) / (cpu1 - cpu0),
		"run.trace_overhead_ratio": float64(traced) / float64(untraced),
	}
	if vals["mercury.frame_ns_per_KiB"] < 0 {
		vals["mercury.frame_ns_per_KiB"] = 0
	}
	printShares(w, self, len(r.tr.spans), spanFile)
	return vals, nil
}

// gcCPUSeconds reads the runtime's own accounting of CPU spent in the
// garbage collector and in total.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 1
}

// printShares prints where the traced self time of the workload's own path
// went, layer by layer.
func printShares(w *workload, self map[string]time.Duration, spans int, file string) {
	names := inPath[w.name]
	var total time.Duration
	for _, n := range names {
		total += self[n]
	}
	sorted := append([]string(nil), names...)
	sort.Slice(sorted, func(i, j int) bool { return self[sorted[i]] > self[sorted[j]] })
	fmt.Printf("traced self time on %s's path (%d spans in %s):\n", w.name, spans, file)
	for _, n := range sorted {
		fmt.Printf("  %-34s %10.3f ms %5.1f%%\n", n, float64(self[n])/float64(time.Millisecond), 100*float64(self[n])/float64(total))
	}
}
