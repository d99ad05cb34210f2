package scenario

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
)

// ---------------------------------------------------------------------------
// Workload pumps: scripted publishers whose acknowledged publishes form the
// zero-loss / ground-truth ledger.

// ackRecord is one acknowledged publish: the service accepted path=val at
// scenario time at. Restart-aware assertions discard records acknowledged
// before the owning instance's latest restart (an in-memory service forgets
// on restart by design — what must never happen is losing a publish it
// acknowledged *since*).
type ackRecord struct {
	path string
	val  float64
	at   time.Duration
}

type workloadRT struct {
	spec   Workload
	r      *runner
	client *core.Client

	paused  atomic.Bool
	valBits atomic.Uint64 // constant-value mode; set_value retargets mid-run
	seqVal  bool

	attempted atomic.Int64
	acked     atomic.Int64

	mu     sync.Mutex
	issued map[string]float64 // shadow merge: every path → last value written
	acks   []ackRecord
}

func startWorkload(ctx context.Context, r *runner, spec Workload) (*workloadRT, error) {
	client, err := core.ConnectPolicy(r.instances[spec.Instance].h.addr(), r.faultEngine, simPolicy())
	if err != nil {
		return nil, err
	}
	w := &workloadRT{spec: spec, r: r, client: client, issued: map[string]float64{}}
	if spec.Value == "seq" {
		w.seqVal = true
	} else {
		v, _ := strconv.ParseFloat(spec.Value, 64)
		w.setValue(v)
	}
	r.wg.Add(1)
	go w.pump(ctx)
	return w, nil
}

func (w *workloadRT) setValue(v float64) { w.valBits.Store(math.Float64bits(v)) }

// pump issues publishes at the scripted rate, retrying each one until the
// service acknowledges it. Issuance stops at end of timeline (stopIssue);
// an in-flight retry may complete during the settle window.
func (w *workloadRT) pump(ctx context.Context) {
	defer w.r.wg.Done()
	interval := time.Duration(float64(time.Second) / w.spec.Rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()

	if w.spec.Start > 0 {
		select {
		case <-time.After(time.Until(w.r.start.Add(w.spec.Start))):
		case <-ctx.Done():
			return
		case <-w.r.stopIssue:
			return
		}
	}

	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-w.r.stopIssue:
			return
		case <-tick.C:
		}
		if w.paused.Load() {
			continue
		}
		path, val := w.sample(i)
		tree := conduit.NewNode()
		tree.SetFloat(path, val)
		w.mu.Lock()
		w.issued[path] = val
		w.mu.Unlock()
		w.attempted.Add(1)
		if !w.publishUntilAcked(ctx, tree, path, val) {
			return
		}
	}
}

// publishUntilAcked retries one publish until the service acknowledges it
// and records the ack in the ledger. Every scenario publish is safe to
// re-send (distinct leaf, or constant rotate value), so retrying cannot
// corrupt the ground truth. After the timeline ends (stopIssue) the retries
// continue against the healed fleet, bounded by the settle window.
func (w *workloadRT) publishUntilAcked(ctx context.Context, tree *conduit.Node, path string, val float64) bool {
	settling := false
	for {
		if err := w.client.Publish(w.spec.NS, tree); err == nil {
			at := w.r.since()
			w.acked.Add(1)
			w.mu.Lock()
			w.acks = append(w.acks, ackRecord{path: path, val: val, at: at})
			w.mu.Unlock()
			return true
		}
		if settling {
			// Observing stopIssue closed licensed reading settleCtx (it is
			// published before the close).
			sctx := w.r.settleCtx
			if sctx == nil {
				return false
			}
			select {
			case <-ctx.Done():
				return false
			case <-sctx.Done():
				return false
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		select {
		case <-ctx.Done():
			return false
		case <-w.r.stopIssue:
			settling = true
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// sample lays out publish i: its leaf path (layout + optional timestamp
// segment) and value.
func (w *workloadRT) sample(i int) (string, float64) {
	var path string
	base := w.spec.Prefix + "/" + w.spec.Name
	if w.spec.Layout == LayoutDistinct {
		path = fmt.Sprintf("%s/p%07d", base, i)
	} else {
		path = fmt.Sprintf("%s/l%03d", base, i%w.spec.Leaves)
	}
	switch w.spec.Timestamps {
	case TimestampsNow:
		path += "/" + formatStamp(wallSeconds())
	case TimestampsSkew:
		// Plausible timestamps an hour off the wall clock, alternating
		// direction — they fold into the rollup rings far outside the live
		// windows (the clock-skew regime).
		off := 3600.0
		if i%2 == 1 {
			off = -3600.0
		}
		t := wallSeconds() + off
		if t < 0 {
			t = 0
		}
		path += "/" + formatStamp(t)
	case TimestampsHostile:
		path += "/" + hostileStamp(i)
	}
	val := float64(i)
	if !w.seqVal {
		val = math.Float64frombits(w.valBits.Load())
	}
	return path, val
}

func wallSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

func formatStamp(t float64) string { return strconv.FormatFloat(t, 'f', 3, 64) }

// hostileStamp cycles the timestamp shapes the rollup hardening must keep
// out of the rings: unique over-limit values (> 1e15, so every sample mints
// a fresh series key and marches the store into its cap), negatives and
// overflow exponents (must stay in the key), and near-zero "ancient"
// times (must hit the ring's modulo normalization, not break it).
func hostileStamp(i int) string {
	switch i % 4 {
	case 0:
		return fmt.Sprintf("9%015d", i)
	case 1:
		return "-42.5"
	case 2:
		return "1e300"
	default:
		return "0.000001"
	}
}

// ledger snapshots the workload's shadow merge and ack log.
func (w *workloadRT) ledger() (issued map[string]float64, acks []ackRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	issued = make(map[string]float64, len(w.issued))
	for k, v := range w.issued {
		issued[k] = v
	}
	return issued, append([]ackRecord(nil), w.acks...)
}

// ---------------------------------------------------------------------------
// Subscriber groups: live update-log subscriptions (fleet-start groups and
// mid-run thundering herds), consumed continuously, drop-accounted.

type subGroupRT struct {
	name    string
	client  *core.Client
	cancel  context.CancelFunc
	subs    []*core.Subscription
	wg      sync.WaitGroup
	updates atomic.Int64
}

// openSubGroup opens count subscriptions concurrently — a herd subscribes
// in one stampede, which is exactly the regime under test.
func (r *runner) openSubGroup(ctx context.Context, name, instance string, ns core.Namespace, pattern string, count int) (*subGroupRT, error) {
	client, err := core.ConnectPolicy(r.instances[instance].h.addr(), r.faultEngine, simPolicy())
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	sg := &subGroupRT{name: name, client: client, cancel: cancel}

	var (
		mu   sync.Mutex
		werr error
		wg   sync.WaitGroup
	)
	subs := make([]*core.Subscription, count)
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := client.Subscribe(ctx, ns, pattern)
			if err != nil {
				mu.Lock()
				if werr == nil {
					werr = err
				}
				mu.Unlock()
				return
			}
			subs[i] = sub
		}(i)
	}
	wg.Wait()
	if werr != nil {
		for _, sub := range subs {
			if sub != nil {
				sub.Close()
			}
		}
		cancel()
		client.Close()
		return nil, werr
	}
	for _, sub := range subs {
		sg.subs = append(sg.subs, sub)
		sg.wg.Add(1)
		go func(sub *core.Subscription) {
			defer sg.wg.Done()
			for range sub.C {
				sg.updates.Add(1)
			}
		}(sub)
	}
	return sg, nil
}

func (sg *subGroupRT) droppedTotal() int64 {
	var total int64
	for _, sub := range sg.subs {
		total += sub.Dropped()
	}
	return total
}

func (sg *subGroupRT) close() {
	sg.cancel()
	for _, sub := range sg.subs {
		sub.Close()
	}
	sg.wg.Wait()
	sg.client.Close()
}

// ---------------------------------------------------------------------------
// Bursts: best-effort adversity traffic (not part of the loss ledger).

func (r *runner) runBurst(ctx context.Context, ev Event) {
	b := ev.Burst
	client, err := core.ConnectPolicy(r.instances[b.Instance].h.addr(), r.faultEngine, simPolicy())
	if err != nil {
		r.eventErrf(ev.Line, "burst: %v", err)
		return
	}
	r.logf("burst: %d publishes x%d concurrent into %s ns=%s", b.Count, b.Concurrency, b.Instance, b.NS)
	per := b.Count / b.Concurrency
	if per == 0 {
		per = 1
	}
	r.burstWG.Add(1)
	go func() {
		defer r.burstWG.Done()
		defer client.Close()
		var wg sync.WaitGroup
		var acked atomic.Int64
		for g := 0; g < b.Concurrency; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					select {
					case <-ctx.Done():
						return
					case <-r.stopIssue:
						return
					default:
					}
					tree := conduit.NewNode()
					tree.SetFloat(fmt.Sprintf("%s/g%03d/b%06d", b.Prefix, g, i), float64(i))
					if client.Publish(b.NS, tree) == nil {
						acked.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		r.evMu.Lock()
		r.burstAck += acked.Load()
		r.burstTry += int64(per * b.Concurrency)
		r.evMu.Unlock()
		r.logf("burst done: %d/%d acked", acked.Load(), per*b.Concurrency)
	}()
}

// ---------------------------------------------------------------------------
// Alert observer: polls soma.alert.list on every instance over the clean
// engine, recording when each rule is first seen firing and first seen
// resolved again — the observations alert_fired / alert_resolved judge.
// Polling the standing (rather than tailing the soma.alerts stream) keeps
// the measurement independent of the very drop/sever faults under test.

type alertObserver struct {
	r      *runner
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	fired    map[string]time.Duration
	resolved map[string]time.Duration
}

func startAlertObserver(r *runner) *alertObserver {
	ctx, cancel := context.WithCancel(context.Background())
	obs := &alertObserver{
		r:        r,
		cancel:   cancel,
		done:     make(chan struct{}),
		fired:    map[string]time.Duration{},
		resolved: map[string]time.Duration{},
	}
	go obs.poll(ctx)
	return obs
}

func (obs *alertObserver) poll(ctx context.Context) {
	defer close(obs.done)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, name := range obs.r.order {
			in := obs.r.instances[name]
			rules, states, err := in.util.Alerts()
			if err != nil {
				continue // instance down or mid-restart; keep polling
			}
			now := obs.r.since()
			firing := map[string]bool{}
			for _, st := range states {
				if st.Firing {
					firing[st.Rule] = true
				}
			}
			obs.mu.Lock()
			for _, rule := range rules {
				switch {
				case firing[rule.Name]:
					if _, ok := obs.fired[rule.Name]; !ok {
						obs.fired[rule.Name] = now
						obs.r.logf("observed: alert %s firing", rule.Name)
					}
				default:
					if _, wasFired := obs.fired[rule.Name]; wasFired {
						if _, ok := obs.resolved[rule.Name]; !ok {
							obs.resolved[rule.Name] = now
							obs.r.logf("observed: alert %s resolved", rule.Name)
						}
					}
				}
			}
			obs.mu.Unlock()
		}
	}
}

// firedAt / resolvedAt report the first observation of each transition.
func (obs *alertObserver) firedAt(rule string) (time.Duration, bool) {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	t, ok := obs.fired[rule]
	return t, ok
}

func (obs *alertObserver) resolvedAt(rule string) (time.Duration, bool) {
	obs.mu.Lock()
	defer obs.mu.Unlock()
	t, ok := obs.resolved[rule]
	return t, ok
}

func (obs *alertObserver) stop() {
	obs.cancel()
	<-obs.done
}
