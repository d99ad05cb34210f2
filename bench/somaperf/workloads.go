package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/gateway"
)

// workload is one traffic mix and the fleet it runs against. All four are
// open loop at a fixed offered rate; rates are totals.
type workload struct {
	name string
	why  string

	fleet      fleetSpec
	publishers int  // logical single-leaf publishers (0 on monitors)
	rate       int  // publisher publishes per second
	batched    bool // publisher rides the client coalescer
	preload    int  // publishes acknowledged during set-up: a fixed count, never time-based
	setupReads int  // reads served during set-up
	rotate     int  // marker paths the probe rotates over
	readEvery  int  // ms between observer reads
	fresh      string
	read       string
}

// markerEvery is the marker probe period in ms on every workload.
const markerEvery = 10

var workloads = []*workload{
	{
		name:  "firehose",
		why:   "many tiny batched writes beside a heavy read: conduit decode, stripe append, rollup fold and snapshot rebuild do the work; gateway, cluster, alerts and fan-out do none",
		fleet: fleetSpec{somads: 1}, publishers: 20000, rate: 50000, batched: true,
		preload: 600000, setupReads: 30, rotate: 16, readEvery: 50,
		fresh: "marker visible in soma.query PROBE", read: "soma.query LOAD (whole 20k-leaf tree)",
	},
	{
		name:  "monitors",
		why:   "few wide synchronous writes, the paper's deployment shape: per-tree bytes, round trips, timestamp-keyed rollups, alert evaluation and subscriber re-encode dominate; batching amortises nothing",
		fleet: fleetSpec{somads: 1}, rate: monRate,
		preload: 6 * monRate, setupReads: 6, rotate: 16, readEvery: 50,
		fresh: "marker delivered by Client.Subscribe", read: "soma.series over rotating keys (timed; 9 in 10), soma.alert.list (1 in 10)",
	},
	{
		name:  "dashboard",
		why:   "reads beside light writes through somagate: query cache and delta, JSON marshal, gateway body cache and WebSocket push dominate; ingest is 4% of firehose's",
		fleet: fleetSpec{somads: 1, gateway: true}, publishers: 2000, rate: 2000, batched: true,
		preload: 400000, setupReads: 60, rotate: 16, readEvery: 25,
		fresh: "marker framed on the gateway WebSocket", read: "GET /api/query LOAD (timed; 5 in 10) beside quiet-namespace (2), /api/series (2) and /api/alerts (1) polls",
	},
	{
		name:  "cluster3",
		why:   "the firehose write and read through placement and scatter: ring lookup, forward hop, scatter fan-out and merge run only here",
		fleet: fleetSpec{somads: 3}, publishers: 20000, rate: 10000, batched: true,
		preload: 500000, setupReads: 25, rotate: 64, readEvery: 100,
		fresh: "marker visible in scatter-gather soma.query PROBE via member 0", read: "scatter-gather soma.query LOAD via member 0",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pacedStream is a stream whose due ticks can be re-based once the preload
// has been drawn from it.
type pacedStream interface {
	stream
	beginPaced()
}

func (w *workload) newStream(seed int64) pacedStream {
	if w.name == "monitors" {
		return newMonStream(seed)
	}
	return newLeafStream(seed, w.publishers, w.rate)
}

// ---------------------------------------------------------------------------
// tally counts operations for the result line's attempted/failed.

type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	refused   atomic.Int64 // subset of failed: the service said no (429, backpressure error)

	mu   sync.Mutex
	errs []string
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...interface{}) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// ---------------------------------------------------------------------------
// sink is the publisher goroutine's connection.

type sink interface {
	publish(p *pub) error
	// acked counts publishes the service has acknowledged.
	acked() int64
	flush() error
	close()
}

type batchSink struct{ c *core.Client }

func (s batchSink) publish(p *pub) error { return s.c.PublishEncoded(p.ns, p.enc) }
func (s batchSink) acked() int64         { return s.c.Published() }
func (s batchSink) flush() error         { return s.c.Flush() }
func (s batchSink) close()               { s.c.Close() }

type clusterSink struct{ c *core.ClusterClient }

func (s clusterSink) publish(p *pub) error { return s.c.PublishEncoded(p.ns, p.path, p.enc) }
func (s clusterSink) acked() int64         { return s.c.Published() }
func (s clusterSink) flush() error         { return s.c.Flush() }
func (s clusterSink) close()               { s.c.Close() }

// syncSink publishes unbatched and synchronously: Publish returns on the
// service's acknowledgement.
type syncSink struct{ c *core.Client }

func (s syncSink) publish(p *pub) error { return s.c.Publish(p.ns, p.tree) }
func (s syncSink) acked() int64         { return s.c.Published() }
func (s syncSink) flush() error         { return nil }
func (s syncSink) close()               { s.c.Close() }

// ---------------------------------------------------------------------------
// session is everything the harness holds open against one fleet.

type session struct {
	w   *workload
	f   *fleet
	st  pacedStream
	tly *tally

	sink sink
	obs  *core.Client // observer's connection, dialled to member 0

	// Receive-only consumer (at most one): a Client.Subscribe on monitors,
	// a gateway WebSocket on dashboard.
	subClient *core.Client
	sub       *core.Subscription
	ws        *gateway.Conn
	httpc     *http.Client
	rx        *receiver

	markerSeq  int          // next marker sequence number (observer goroutine only)
	markerAcks atomic.Int64 // markers acknowledged, for the CPU-per-publish denominator
	extraPubs  map[core.Namespace]int64
	readIdx    int
	loaded     bool // the preload has been acknowledged in full
	seriesKeys []string
}

// receiver is the consumer goroutine's record of what the push channel
// delivered.
type receiver struct {
	mu       sync.Mutex
	arrival  map[int]time.Time // marker seq → first delivery
	messages int64
	// In-stream drop accounting as of the newest message.
	droppedUp, droppedWS int64
	done                 chan struct{}
}

func newReceiver() *receiver {
	return &receiver{arrival: map[int]time.Time{}, done: make(chan struct{})}
}

func (r *receiver) snapshot() (messages, droppedUp, droppedWS int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.messages, r.droppedUp, r.droppedWS
}

func (r *receiver) arrivedAt(seq int) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.arrival[seq]
	return t, ok
}

// markerSeqOf extracts a marker's sequence number from a delivered tree.
func markerSeqOf(tree *conduit.Node) (int, bool) {
	probe, ok := tree.Get("PROBE")
	if !ok {
		return 0, false
	}
	for _, name := range probe.ChildNames() {
		if v, ok := probe.Float(name); ok {
			return int(v), true
		}
	}
	return 0, false
}

func (r *receiver) runSubscription(sub *core.Subscription) {
	defer close(r.done)
	for u := range sub.C {
		now := time.Now()
		seq, isMarker := markerSeqOf(u.Tree)
		r.mu.Lock()
		r.messages++
		r.droppedUp = u.Dropped
		if isMarker {
			if _, seen := r.arrival[seq]; !seen {
				r.arrival[seq] = now
			}
		}
		r.mu.Unlock()
	}
}

func (r *receiver) runWebSocket(ws *gateway.Conn) {
	defer close(r.done)
	for {
		op, payload, err := ws.ReadMessage()
		if err != nil {
			return
		}
		now := time.Now()
		switch op {
		case gateway.OpPing:
			if ws.WriteMessage(gateway.OpPong, payload) != nil {
				return
			}
			continue
		case gateway.OpClose:
			return
		case gateway.OpText:
		default:
			continue
		}
		// Only a marker's data is decoded; every other frame's subtree
		// stays raw.
		var frame struct {
			Data            map[string]json.RawMessage `json:"data"`
			DroppedUpstream int64                      `json:"dropped_upstream"`
			DroppedWS       int64                      `json:"dropped_ws"`
		}
		if json.Unmarshal(payload, &frame) != nil {
			continue
		}
		var probe map[string]float64
		if raw, ok := frame.Data["PROBE"]; ok && json.Unmarshal(raw, &probe) != nil {
			continue
		}
		r.mu.Lock()
		r.messages++
		r.droppedUp, r.droppedWS = frame.DroppedUpstream, frame.DroppedWS
		for _, v := range probe {
			if _, seen := r.arrival[int(v)]; !seen {
				r.arrival[int(v)] = now
			}
		}
		r.mu.Unlock()
	}
}

// connect dials every client the workload needs and arms its rule,
// subscriber or WebSocket.
func (w *workload) connect(f *fleet, st pacedStream, tly *tally) (*session, error) {
	s := &session{w: w, f: f, st: st, tly: tly, extraPubs: map[core.Namespace]int64{}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.obs, err = core.Connect(f.addrs[0], nil); err != nil {
		return nil, err
	}
	switch {
	case w.fleet.somads > 1:
		batch := core.BatchConfig{}
		cc, err := core.ConnectCluster(f.addrs[0], nil, core.ClusterClientConfig{Batch: &batch})
		if err != nil {
			return nil, err
		}
		s.sink = clusterSink{cc}
	case w.batched:
		c, err := core.Connect(f.addrs[0], nil)
		if err != nil {
			return nil, err
		}
		c.EnableBatch(core.BatchConfig{})
		s.sink = batchSink{c}
	default:
		c, err := core.Connect(f.addrs[0], nil)
		if err != nil {
			return nil, err
		}
		s.sink = syncSink{c}
	}
	switch w.name {
	case "monitors":
		err := s.obs.SetAlert(core.AlertRule{
			Name: monAlertRule, NS: core.NSHardware, Pattern: monAlertGlob,
			Op: ">", Threshold: monHotThresh, WindowSec: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("arm alert rule: %w", err)
		}
		if s.subClient, err = core.Connect(f.addrs[0], nil); err != nil {
			return nil, err
		}
		if s.sub, err = s.subClient.Subscribe(context.Background(), core.NSHardware, ""); err != nil {
			return nil, fmt.Errorf("arm subscriber: %w", err)
		}
		s.rx = newReceiver()
		go s.rx.runSubscription(s.sub)
		for n := 0; n < monNodes; n++ {
			for c := 0; c < monCores; c += 9 {
				s.seriesKeys = append(s.seriesKeys, monSeriesKey(n, c, "user"))
			}
		}
	case "dashboard":
		// One keep-alive connection: sequential requests reuse it.
		s.httpc = &http.Client{
			Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   10 * time.Second,
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.ws, err = gateway.Dial(ctx, "ws"+strings.TrimPrefix(f.gateURL, "http")+"/ws?ns=hardware")
		cancel()
		if err != nil {
			return nil, fmt.Errorf("arm websocket: %w", err)
		}
		s.rx = newReceiver()
		go s.rx.runWebSocket(s.ws)
		for p := 0; p < 64; p++ {
			s.seriesKeys = append(s.seriesKeys, fmt.Sprintf("LOAD/cn%05d/s%02d", p/16, p%16))
		}
	}
	ok = true
	return s, nil
}

func (s *session) close() {
	if s.sub != nil {
		s.sub.Close()
	}
	if s.ws != nil {
		s.ws.Close()
	}
	if s.rx != nil && (s.sub != nil || s.ws != nil) {
		<-s.rx.done
	}
	if s.subClient != nil {
		s.subClient.Close()
	}
	if s.sink != nil {
		s.sink.close()
	}
	if s.obs != nil {
		s.obs.Close()
	}
	if s.httpc != nil {
		s.httpc.CloseIdleConnections()
	}
}

// quietTrees is how many static workflow trees the dashboard preload
// publishes: a namespace nothing writes to during the window, so polls of
// it exercise the delta "unchanged" answer and the gateway body cache.
const quietTrees = 200

// preload publishes the workload's fixed preload count as fast as the
// service acknowledges it, interleaved with the set-up reads, then serves
// one full read. The work is a constant of the workload: set-up time
// measures the fleet, not a timer.
func (s *session) preload() error {
	w := s.w
	if w.name == "dashboard" {
		for i := 0; i < quietTrees; i++ {
			n := conduit.NewNode()
			base := fmt.Sprintf("RP/task.%06d", i)
			n.SetString(base+"/state", "DONE")
			n.SetString(base+"/pilot", "pilot.0000")
			n.SetFloat(base+"/runtime", float64(100+i))
			if err := s.obs.Publish(core.NSWorkflow, n); err != nil {
				return fmt.Errorf("preload quiet namespace: %w", err)
			}
			s.extraPubs[core.NSWorkflow]++
			s.tly.ok()
		}
	}
	every := w.preload / w.setupReads
	for i := 0; i < w.preload; i++ {
		p := s.st.next()
		if err := s.sink.publish(&p); err != nil {
			return fmt.Errorf("preload publish %d: %w", i, err)
		}
		s.tly.ok()
		if (i+1)%every == 0 {
			if _, err := s.read(); err != nil {
				return fmt.Errorf("set-up read: %w", err)
			}
		}
	}
	if err := s.sink.flush(); err != nil {
		return fmt.Errorf("preload flush: %w", err)
	}
	if got := s.sink.acked(); got != int64(w.preload) {
		return fmt.Errorf("preload: %d of %d publishes acknowledged", got, w.preload)
	}
	s.loaded = true
	if err := s.fullRead(); err != nil {
		return fmt.Errorf("first full read: %w", err)
	}
	if s.rx != nil {
		// The preload outran the push channel by design; the fleet is ready
		// once the consumer has caught up.
		if err := s.settlePush(); err != nil {
			return err
		}
	}
	s.st.beginPaced()
	return nil
}

// fullRead is the read that ends set-up: the workload's whole-tree view.
func (s *session) fullRead() error {
	switch s.w.name {
	case "monitors":
		tree, err := s.obs.Query(core.NSHardware, "PROC/cn000")
		if err != nil {
			return err
		}
		if tree.NumLeaves() == 0 {
			return errors.New("empty PROC/cn000 after preload")
		}
		return nil
	case "dashboard":
		return s.httpGet("/api/query?ns=hardware&path=LOAD", `"LOAD"`)
	default:
		return s.queryLoad()
	}
}

func (s *session) queryLoad() error {
	tree, err := s.obs.Query(core.NSHardware, "LOAD")
	if err != nil {
		return err
	}
	// While the preload is still in flight the tree is legitimately partial.
	if got, want := tree.NumChildren(), s.w.publishers/16; s.loaded && got != want {
		return fmt.Errorf("soma.query LOAD: %d nodes, want %d", got, want)
	}
	return nil
}

func (s *session) httpGet(pathQuery, mustContain string) error {
	resp, err := s.httpc.Get(s.f.gateURL + pathQuery)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		s.tly.refused.Add(1)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", pathQuery, resp.Status)
	}
	if !bytes.Contains(body, []byte(mustContain)) {
		return fmt.Errorf("GET %s: body lacks %s", pathQuery, mustContain)
	}
	return nil
}

// read issues the workload's next read operation and checks the answer is
// the kind of answer it should be. primary marks the operation read_p50_ms
// is taken over: a workload's read mix has fast and slow kinds, and the
// median of a two-humped sample sits in the gap between the humps and jumps
// with the mix, so the timing row follows the dominant kind only. The
// others are issued and checked all the same.
func (s *session) read() (primary bool, err error) {
	i := s.readIdx
	s.readIdx++
	switch s.w.name {
	case "monitors":
		if i%10 == 9 {
			rules, _, err := s.obs.Alerts()
			if err != nil {
				return false, err
			}
			if len(rules) != 1 {
				return false, fmt.Errorf("soma.alert.list: %d rules, want 1", len(rules))
			}
			return false, nil
		}
		key := s.seriesKeys[i%len(s.seriesKeys)]
		se, err := s.obs.Series(core.NSHardware, key, core.Level1s, 0)
		if err != nil {
			return true, fmt.Errorf("soma.series %s: %w", key, err)
		}
		if len(se.Bucket) == 0 {
			return true, fmt.Errorf("soma.series %s: no buckets", key)
		}
		return true, nil
	case "dashboard":
		switch i % 10 {
		case 1, 7:
			return false, s.httpGet("/api/query?ns=workflow&path=RP", `"task.000000"`)
		case 3, 9:
			key := s.seriesKeys[i%len(s.seriesKeys)]
			return false, s.httpGet("/api/series?ns=hardware&level=1s&key="+key, `"buckets"`)
		case 5:
			return false, s.httpGet("/api/alerts", `"rules"`)
		default:
			return true, s.httpGet("/api/query?ns=hardware&path=LOAD", `"LOAD"`)
		}
	default:
		return true, s.queryLoad()
	}
}

// publishMarker sends the next marker synchronously on the observer's
// connection and returns its sequence number.
func (s *session) publishMarker() (seq int, err error) {
	seq = s.markerSeq
	s.markerSeq++
	if err := s.obs.Publish(core.NSHardware, markerTree(seq, s.w.rotate)); err != nil {
		return seq, err
	}
	s.markerAcks.Add(1)
	return seq, nil
}

// freshTimeout bounds how long a marker may take to become visible before
// it counts as a failed operation.
const freshTimeout = 2 * time.Second

// awaitVisible polls soma.query PROBE until the marker shows, for the
// workloads whose consumer is a polling reader.
func (s *session) awaitVisible(seq int) error {
	path := markerPath(seq, s.w.rotate)
	deadline := time.Now().Add(freshTimeout)
	for {
		tree, err := s.obs.Query(core.NSHardware, "PROBE")
		if err != nil {
			return err
		}
		if v, ok := tree.Float(strings.TrimPrefix(path, "PROBE/")); ok && int(v) >= seq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("marker %d not visible in soma.query within %s", seq, freshTimeout)
		}
	}
}

// pollsFresh reports whether freshness is measured by polling (true) or by
// the receive-only consumer (false).
func (w *workload) pollsFresh() bool { return w.name == "firehose" || w.name == "cluster3" }
