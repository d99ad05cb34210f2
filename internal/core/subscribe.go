package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
	"github.com/hpcobs/gosoma/internal/zmq"
)

// Live namespace subscriptions: every publish is fanned out over the
// service's update bus (an in-process zmq.PubSub), and three rows of rpcTable
// serve that bus to remote clients — soma.updates.sub registers a topic-prefix
// subscription, soma.updates.recv long-polls it for a batch, soma.updates.unsub
// releases it — so clients receive incremental updates pushed to them instead
// of polling Query. Topics are "ns/<namespace>/" for publishes and
// "alerts/<namespace>/" for threshold-alert transitions (the trailing
// delimiter keeps the bus's prefix match segment-exact, so no namespace can
// shadow another whose name it prefixes); the reserved NSAlerts
// pseudo-namespace subscribes to the latter.
//
// Backpressure: fan-out is fire-and-forget with per-subscriber high-water
// buffers — a slow subscriber drops (counted, reported on every receive via
// Update.Dropped) rather than stalling ingest. When nobody subscribes, the
// publish path pays one atomic load and skips payload construction.
//
// Subscriptions are member-local: on a cluster a subscriber sees what the
// member it dialled ingests.

// The update-stream rows of rpcTable.
const (
	rpcUpdatesSub   = "soma.updates.sub"
	rpcUpdatesRecv  = "soma.updates.recv"
	rpcUpdatesUnsub = "soma.updates.unsub"
)

var (
	// telPushLatency tracks bus fan-out cost per publish (enqueue to every
	// subscriber), observed only when subscribers exist.
	telPushLatency = telemetry.Default().Histogram("core.stream.push.latency")
	// The gauge tracks live leases across every service in the process;
	// expiries count reclaimed dead subscribers.
	telRemoteSubs    = telemetry.Default().Gauge("zmq.pubsub.remote.subscribers")
	telRemoteExpired = telemetry.Default().Counter("zmq.pubsub.remote.expired")
)

// topicPrefix maps a subscription target onto a bus topic prefix: "" = all
// namespaces, NSAlerts = the alert stream, otherwise one namespace.
func topicPrefix(ns Namespace) (string, error) {
	switch {
	case ns == "":
		return "ns/", nil
	case ns == NSAlerts:
		return "alerts/", nil
	case ns.Valid():
		return "ns/" + string(ns) + "/", nil
	}
	return "", &ErrUnknownNamespace{NS: ns}
}

// updateWire is the bus payload: the published tree as a CDT1 frame plus its
// namespace and service timestamp. Data is the publish's own frame — for a
// wire publish a subslice of the service's retained copy of the request,
// shared with the pending record and immutable — so fan-out encodes nothing, and
// soma.updates.recv splices the same bytes into its answer.
type updateWire struct {
	NS   string
	T    float64
	Data []byte
}

// fanOut pushes one publish onto the update bus; ingest calls it after the
// stripe append, and only while somebody subscribes.
func (s *Service) fanOut(now float64, p *pub) {
	start := time.Now()
	s.bus.Publish("ns/"+string(p.ns)+"/", updateWire{NS: string(p.ns), T: now, Data: p.enc})
	telPushLatency.ObserveSince(start)
}

// publishAlertStream pushes one alert transition onto the reserved alerts
// stream (the alertEngine's notify hook).
func (s *Service) publishAlertStream(ns Namespace, tree *conduit.Node) {
	if s.bus == nil || s.bus.Subscribers() == 0 {
		return
	}
	t, _ := tree.Float("time")
	s.bus.Publish("alerts/"+string(ns)+"/", updateWire{NS: string(ns), T: t, Data: tree.EncodeBinary()})
}

// SubscribeLocal registers an in-process subscription on the update bus (ns
// semantics as Client.Subscribe: "" = every namespace, NSAlerts = alert
// transitions). Decode received messages with DecodeUpdate.
func (s *Service) SubscribeLocal(ns Namespace) (<-chan zmq.Message, func(), error) {
	prefix, err := topicPrefix(ns)
	if err != nil {
		return nil, nil, err
	}
	ch, cancel := s.bus.Subscribe(prefix)
	return ch, cancel, nil
}

// Update is one pushed increment: a publish into a subscribed namespace, or
// (Alert true) a threshold-alert transition.
type Update struct {
	NS    Namespace
	Time  float64
	Alert bool
	Tree  *conduit.Node
	// Dropped is the cumulative count of updates this subscription lost to
	// the server-side high-water mark (slow-consumer accounting).
	Dropped int64
}

// DecodeUpdate unpacks a message of a SubscribeLocal subscription into an
// Update. Dropped is left for the caller (it is per-subscription, not
// per-message).
func DecodeUpdate(m zmq.Message) (Update, error) {
	w, ok := m.Payload.(updateWire)
	if !ok {
		return Update{}, fmt.Errorf("soma: unexpected update payload type %T", m.Payload)
	}
	tree, err := conduit.DecodeBinary(w.Data)
	if err != nil {
		return Update{}, fmt.Errorf("soma: decode update: %w", err)
	}
	return Update{
		NS:    Namespace(w.NS),
		Time:  w.T,
		Alert: strings.HasPrefix(m.Topic, "alerts/"),
		Tree:  tree,
	}, nil
}

// ---------------------------------------------------------------------------
// Service surface: the three stream rows and the leases behind them.
//
// Delivery semantics are exactly the bus's — per-subscriber buffers with
// high-water-mark dropping — and each receive reports the subscription's
// cumulative drop count, so a slow network consumer can see what it lost.
// Subscriptions are leased: a subscriber that stops calling recv (crashed,
// disconnected) is dropped after leaseExpiry of silence and its bus
// subscription cancelled, reclaiming its buffer.

// leaseExpiry is how long a remote subscription survives without a receive
// call before the service reclaims it.
const leaseExpiry = 60 * time.Second

// maxRecvWait bounds how long one soma.updates.recv parks, whatever the
// request asks for.
const maxRecvWait = time.Minute

// lease is the service side of one remote subscription: a bus subscription
// plus lease bookkeeping.
type lease struct {
	ch       <-chan zmq.Message
	cancel   func()
	stats    func() zmq.SubStats
	lastSeen time.Time
	// inRecv counts receive calls currently parked on this subscription, so
	// the sweep never expires a lease that is actively being polled.
	inRecv int
}

// leaseTable is a service's remote subscriptions by id.
type leaseTable struct {
	expiry time.Duration // leaseExpiry; in-package tests shorten it

	mu     sync.Mutex
	subs   map[int64]*lease
	nextID int64
}

// sweep reclaims leases idle beyond the expiry. Called from every stream
// handler, so dead subscribers are collected as a side effect of live traffic
// (no janitor goroutine to leak).
func (lt *leaseTable) sweep(now time.Time) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for id, st := range lt.subs {
		if st.inRecv == 0 && now.Sub(st.lastSeen) > lt.expiry {
			st.cancel()
			delete(lt.subs, id)
			telRemoteSubs.Dec()
			telRemoteExpired.Inc()
		}
	}
}

// closeAll cancels and forgets every lease: the service is closing, and
// neither a sweep nor an unsub will come to reclaim them.
func (lt *leaseTable) closeAll() {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for id, st := range lt.subs {
		st.cancel()
		delete(lt.subs, id)
		telRemoteSubs.Dec()
	}
}

var updatesSubFields = []string{"prefix"}

// handleUpdatesSub serves soma.updates.sub {prefix} → {id}.
func (s *Service) handleUpdatesSub(_ context.Context, payload []byte) ([]byte, error) {
	var f [1][]byte
	if err := conduit.SliceFields(payload, updatesSubFields, f[:]); err != nil {
		return nil, err
	}
	prefix, ok := conduit.RawString(f[0])
	if !ok {
		return nil, fmt.Errorf("soma: request missing prefix field")
	}
	lt := &s.leases
	now := time.Now()
	lt.sweep(now)
	ch, cancel, stats := s.bus.SubscribeWithStats(string(prefix))
	lt.mu.Lock()
	lt.nextID++
	id := lt.nextID
	lt.subs[id] = &lease{ch: ch, cancel: cancel, stats: stats, lastSeen: now}
	lt.mu.Unlock()
	telRemoteSubs.Inc()
	resp := conduit.NewNode()
	resp.SetInt("id", id)
	return resp.EncodeBinary(), nil
}

var updatesIDField = []string{"id"}

// handleUpdatesUnsub serves soma.updates.unsub {id}.
func (s *Service) handleUpdatesUnsub(_ context.Context, payload []byte) ([]byte, error) {
	var f [1][]byte
	if err := conduit.SliceFields(payload, updatesIDField, f[:]); err != nil {
		return nil, err
	}
	id, _ := conduit.RawInt(f[0])
	lt := &s.leases
	lt.mu.Lock()
	st, ok := lt.subs[id]
	delete(lt.subs, id)
	lt.mu.Unlock()
	if ok {
		st.cancel()
		telRemoteSubs.Dec()
	}
	return okFrame, nil
}

var updatesRecvFields = []string{"id", "max", "wait_ms"}

// handleUpdatesRecv serves soma.updates.recv {id, max, wait_ms} →
// {dropped, closed, msgs/<NNNNNN>/{topic, ns, t, data}}, the long-poll receive:
// it parks until a message is buffered for the subscription, the wait window
// elapses, or the engine closes (the blocking-row context), then drains up to
// max messages. The answer is written around the updates' own frames: data is
// the bytes the publisher sent, validated at ingest and not encoded again.
func (s *Service) handleUpdatesRecv(ctx context.Context, payload []byte) (mercury.Response, error) {
	var f [3][]byte
	if err := conduit.SliceFields(payload, updatesRecvFields, f[:]); err != nil {
		return mercury.Response{}, err
	}
	id, _ := conduit.RawInt(f[0])
	// Refresh the calling subscription's own lease before sweeping: a
	// subscriber whose gap between recv calls just exceeded the expiry must
	// not reap itself on the way in.
	lt := &s.leases
	now := time.Now()
	lt.mu.Lock()
	st, ok := lt.subs[id]
	if ok {
		st.lastSeen = now
		st.inRecv++
	}
	lt.mu.Unlock()
	lt.sweep(now)
	if !ok {
		return mercury.Response{}, fmt.Errorf("soma: no update subscription %d", id)
	}
	defer func() {
		lt.mu.Lock()
		st.inRecv--
		st.lastSeen = time.Now()
		lt.mu.Unlock()
	}()

	maxMsgs, _ := conduit.RawInt(f[1])
	if maxMsgs < 1 {
		maxMsgs = 64
	}
	waitMS, _ := conduit.RawInt(f[2])
	wait := time.Duration(waitMS) * time.Millisecond
	if waitMS <= 0 {
		wait = time.Millisecond
	} else if waitMS > maxRecvWait.Milliseconds() {
		wait = maxRecvWait
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()

	// Park for the first message, then drain whatever else is buffered.
	var few [8]zmq.Message // the usual batch stays on the stack
	msgs, closed := few[:0], false
	select {
	case m, open := <-st.ch:
		if open {
			msgs = append(msgs, m)
		} else {
			closed = true
		}
	case <-timer.C:
	case <-ctx.Done():
	}
drain:
	for int64(len(msgs)) < maxMsgs && !closed {
		select {
		case m, open := <-st.ch:
			if open {
				msgs = append(msgs, m)
			} else {
				closed = true
			}
		default:
			break drain
		}
	}

	bp := conduit.GetEncodeBuffer()
	b := conduit.AppendRawFrame(*bp, nil) // the magic; the root node follows
	b = conduit.AppendRawObject(b, 3)
	b = conduit.AppendRawName(b, "dropped")
	b = conduit.AppendRawInt(b, st.stats().Dropped)
	b = conduit.AppendRawName(b, "closed")
	b = conduit.AppendRawBool(b, closed)
	b = conduit.AppendRawName(b, "msgs")
	b = conduit.AppendRawObject(b, len(msgs))
	var key [20]byte
	for i, m := range msgs {
		// Only fanOut and publishAlertStream publish on the service's bus.
		w := m.Payload.(updateWire)
		b = conduit.AppendRawName(b, string(appendIndexKey(key[:0], i)))
		b = conduit.AppendRawObject(b, 4)
		b = conduit.AppendRawName(b, "topic")
		b = conduit.AppendRawString(b, m.Topic)
		b = conduit.AppendRawName(b, "ns")
		b = conduit.AppendRawString(b, w.NS)
		b = conduit.AppendRawName(b, "t")
		b = conduit.AppendRawFloat(b, w.T)
		b = conduit.AppendRawName(b, "data")
		b = append(b, w.Data[4:]...) // the frame's root node, past its magic
	}
	*bp = b
	return mercury.Response{Payload: b, Release: func() { conduit.PutEncodeBuffer(bp) }}, nil
}

// ---------------------------------------------------------------------------
// Client surface.

// stream is the client side of one lease: the endpoint it was registered over
// and its id there.
type stream struct {
	ep *mercury.Endpoint
	id int64
}

// openStream registers a subscription for prefix over ep.
func openStream(ep *mercury.Endpoint, prefix string) (stream, error) {
	req := conduit.NewNode()
	req.SetString("prefix", prefix)
	resp, err := callTree(context.Background(), ep, rpcUpdatesSub, req)
	if err != nil {
		return stream{}, err
	}
	id, ok := resp.Int("id")
	if !ok {
		return stream{}, fmt.Errorf("soma: %s answer carries no id", rpcUpdatesSub)
	}
	return stream{ep: ep, id: id}, nil
}

// recv long-polls for the next batch: the answer frame comes back as soon as
// at least one update is available (up to max per call), or empty after wait.
func (st stream) recv(ctx context.Context, max int, wait time.Duration) ([]byte, error) {
	req := conduit.NewNode()
	req.SetInt("id", st.id)
	req.SetInt("max", int64(max))
	req.SetInt("wait_ms", wait.Milliseconds())
	return st.ep.Call(ctx, rpcUpdatesRecv, req.EncodeBinary())
}

// unsub releases the lease, best effort: the connection may be gone, and the
// service reclaims an abandoned lease by itself.
func (st stream) unsub() {
	req := conduit.NewNode()
	req.SetInt("id", st.id)
	_, _ = callTree(context.Background(), st.ep, rpcUpdatesUnsub, req)
}

// decodeUpdates reads one soma.updates.recv answer: the updates in wire order,
// the lease's cumulative drop count, and whether the bus has shut down. The
// frame is network input: DecodeBinary rejects a malformed one whole, and an
// entry without a string topic, a numeric t or a data subtree is skipped.
func decodeUpdates(frame []byte) (ups []Update, dropped int64, closed bool, err error) {
	resp, err := conduit.DecodeBinary(frame)
	if err != nil {
		return nil, 0, false, fmt.Errorf("soma: decode updates: %w", err)
	}
	dropped, _ = resp.Int("dropped")
	closed, _ = resp.Bool("closed")
	msgs := resp.Child("msgs")
	if msgs == nil {
		return nil, dropped, closed, nil
	}
	for _, name := range msgs.ChildNames() {
		m := msgs.Child(name)
		topic, okTopic := m.StringVal("topic")
		t, okT := m.Float("t")
		data := m.Child("data")
		if !okTopic || !okT || data == nil {
			continue
		}
		ns, _ := m.StringVal("ns")
		ups = append(ups, Update{
			NS:    Namespace(ns),
			Time:  t,
			Alert: strings.HasPrefix(topic, "alerts/"),
			Tree:  data,
		})
	}
	return ups, dropped, closed, nil
}

// Subscription is a live client-side subscription. Consume pushed updates
// from C; the channel closes when the subscription ends (Close, or the
// parent context given to Subscribe is cancelled).
type Subscription struct {
	// C delivers pushed updates in arrival order.
	C <-chan Update

	cancel  func()
	done    chan struct{}
	dropped atomic.Int64
}

// Dropped reports the cumulative server-side high-water drops across the
// subscription's lifetime (surviving reconnects).
func (sub *Subscription) Dropped() int64 { return sub.dropped.Load() }

// Close ends the subscription and waits for C to close.
func (sub *Subscription) Close() {
	sub.cancel()
	<-sub.done
}

// Subscribe registers a live subscription: ns "" follows every namespace,
// NSAlerts follows threshold-alert transitions, otherwise one namespace.
// A non-empty pattern keeps only updates whose tree has at least one leaf
// path matching the glob ('*' one segment, '**' any tail).
//
// Delivery is push: the service fans publishes out as they arrive and the
// subscription long-polls the stream (no Query polling). If the connection
// drops, the subscription redials the service address and resubscribes with
// exponential backoff until the context is cancelled; updates published
// while disconnected are lost (and not counted in Dropped — only the
// server's high-water drops are).
func (c *Client) Subscribe(ctx context.Context, ns Namespace, pattern string) (*Subscription, error) {
	prefix, err := topicPrefix(ns)
	if err != nil {
		return nil, err
	}
	// First subscribe over the client's own endpoint, synchronously, so a
	// service that does not serve the stream fails fast.
	st, err := openStream(c.ep, prefix)
	if err != nil {
		return nil, fmt.Errorf("soma: subscribe %s: %w", ns, err)
	}
	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan Update, 64) // one full recv batch
	sub := &Subscription{C: ch, cancel: cancel, done: make(chan struct{})}
	go c.subscribeLoop(ctx, sub, ch, st, prefix, pattern)
	return sub, nil
}

// subscribeLoop is the receive pump: long-poll batches, decode, filter,
// deliver; on transport failure, redial + resubscribe with backoff.
func (c *Client) subscribeLoop(ctx context.Context, sub *Subscription, ch chan<- Update, st stream, prefix, pattern string) {
	defer close(sub.done)
	defer close(ch)
	live := true                // st holds a lease
	var ownEP *mercury.Endpoint // reconnect endpoint; nil while on c.ep
	defer func() {
		if live {
			st.unsub()
		}
		if ownEP != nil {
			ownEP.Close()
		}
	}()
	// droppedBase carries drop counts across reconnects: each server-side
	// lease counts from zero.
	var droppedBase, droppedLease int64
	for {
		if ctx.Err() != nil {
			return
		}
		var ups []Update
		closed := false
		frame, err := st.recv(ctx, 64, 30*time.Second)
		if err == nil {
			var dropped int64
			if ups, dropped, closed, err = decodeUpdates(frame); err == nil {
				droppedLease = dropped
				sub.dropped.Store(droppedBase + droppedLease)
			}
		}
		if err != nil || (closed && len(ups) == 0) {
			if ctx.Err() != nil {
				return
			}
			// Connection lost or bus closed: redial and resubscribe on the
			// shared backoff policy (exponential with full jitter, so a
			// fleet of subscribers does not redial a healing service in
			// lockstep).
			droppedBase += droppedLease
			droppedLease = 0
			live = false
			bo := mercury.Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second}
			for attempt := 0; !live; attempt++ {
				if ownEP != nil {
					ownEP.Close()
					ownEP = nil
				}
				if ep, derr := c.redial(); derr == nil {
					if nst, serr := openStream(ep, prefix); serr == nil {
						ownEP, st, live = ep, nst, true
						break
					}
					ep.Close()
				}
				if bo.Sleep(ctx, attempt) != nil {
					return
				}
			}
			continue
		}
		for _, u := range ups {
			if pattern != "" && pattern != "**" && len(u.Tree.Select(pattern)) == 0 {
				continue
			}
			u.Dropped = sub.Dropped()
			select {
			case ch <- u:
			case <-ctx.Done():
				return
			}
		}
	}
}

// redial re-resolves the service address the client was connected with
// (through the same engine and call policy, when supplied).
func (c *Client) redial() (*mercury.Endpoint, error) {
	if c.addr == "" {
		return nil, fmt.Errorf("soma: client has no redial address")
	}
	if c.engine != nil {
		return c.engine.LookupPolicy(c.addr, c.policy)
	}
	return mercury.LookupPolicy(c.addr, c.policy)
}

// Watch subscribes and invokes fn for every pushed update until the context
// is cancelled, the subscription ends, or fn returns an error (which Watch
// returns).
func (c *Client) Watch(ctx context.Context, ns Namespace, pattern string, fn func(Update) error) error {
	sub, err := c.Subscribe(ctx, ns, pattern)
	if err != nil {
		return err
	}
	defer sub.Close()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case u, ok := <-sub.C:
			if !ok {
				return nil
			}
			if err := fn(u); err != nil {
				return err
			}
		}
	}
}
