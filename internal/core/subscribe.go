package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Live namespace subscriptions. The service keeps one update log: an
// append-only sequence of the publishes and alert transitions somebody
// subscribes to, each entry referencing the publish's own immutable CDT1
// frame. A subscription is a cursor into it: the next sequence number to
// read, what it lost, and for a remote one a lease. Three rows of rpcTable
// serve the log — soma.updates.sub opens a cursor for a topic prefix,
// soma.updates.recv long-polls it, soma.updates.unsub releases it — and
// SubscribeLocal reads it in process through the same function.
//
// Topics are "ns/<namespace>/" for publishes and "alerts/<namespace>/" for
// threshold-alert transitions. A prefix is matched against the eight of them
// once, when its cursor opens, and kept as a bitmask; the trailing delimiter
// keeps plain prefix matching segment-exact.
//
// Backpressure: an append never waits for a reader. Past logBudget bytes it
// drops the oldest entries and charges each to every cursor that had not read
// it and whose mask covers it, so every receive reports its subscription's
// exact loss (Update.Dropped). Entries no cursor wants never enter the log;
// with no cursor open, a publish pays one atomic load. What every cursor has
// read is released, and the last cursor's release empties the log.
//
// Subscriptions are member-local: on a cluster a subscriber sees what the
// member it dialled ingests.

// The update-stream rows of rpcTable.
const (
	rpcUpdatesSub   = "soma.updates.sub"
	rpcUpdatesRecv  = "soma.updates.recv"
	rpcUpdatesUnsub = "soma.updates.unsub"
)

// Process-wide stream telemetry, summed over every service in the process:
// open cursors, reclaimed dead subscribers, entries shed unread (once per
// cursor that lost them) and the bytes the logs hold.
var (
	telCursors    = telemetry.Default().Gauge("core.subscribe.cursors")
	telExpired    = telemetry.Default().Counter("core.subscribe.expired")
	telSubDropped = telemetry.Default().Counter("core.subscribe.dropped")
	telLogBytes   = telemetry.Default().Gauge("core.subscribe.log_bytes")
)

// logBudget bounds the update log: every retained frame plus the ring slots
// it charges. It is no smaller than what the message-counted per-subscriber
// buffer it replaced held for the one shipped subscriber shape, a hardware
// subscription beside node-monitor publishes: 1024 updates × (3 190 B per
// 200-leaf monitor frame + 80 B of slots) = 3.2 MiB.
const logBudget = 1024 * (3190 + entryBytes)

// leaseExpiry is how long a remote subscription survives without a receive
// call before the service reclaims it.
const leaseExpiry = 60 * time.Second

// maxRecvWait bounds how long one soma.updates.recv parks, whatever the
// request asks for.
const maxRecvWait = time.Minute

// topics names the stream's topics by index: Namespaces[i]'s publishes are
// topic i, its alert transitions topic 4+i.
var topics = func() (t [8]string) {
	for i, ns := range Namespaces {
		t[i] = "ns/" + string(ns) + "/"
		t[len(Namespaces)+i] = "alerts/" + string(ns) + "/"
	}
	return t
}()

// prefixMask compiles a soma.updates.sub prefix into the topics it matches:
// bit i is set iff topics[i] begins with prefix.
func prefixMask(prefix string) uint32 {
	var m uint32
	for i, t := range topics {
		if strings.HasPrefix(t, prefix) {
			m |= 1 << i
		}
	}
	return m
}

// subPrefix is the soma.updates.sub prefix that follows ns: "" = every
// namespace's publishes, NSAlerts = every alert transition, otherwise one
// namespace's update topic.
func subPrefix(ns Namespace) (string, error) {
	if i := slices.Index(Namespaces, ns); i >= 0 {
		return topics[i], nil
	}
	switch ns {
	case "":
		return "ns/", nil
	case NSAlerts:
		return "alerts/", nil
	}
	return "", &ErrUnknownNamespace{NS: ns}
}

// logEntry is one logged update: its topic, its service timestamp and its
// frame. Its sequence number is its position in the log.
type logEntry struct {
	topic uint8
	t     float64
	data  []byte
}

// entryBytes is what an entry charges against the budget beside its frame:
// its slot and, since the ring doubles when full, up to one spare slot, so
// the budget bounds the ring too.
const entryBytes = 2 * 40 // 2 × unsafe.Sizeof(logEntry{})

func (e *logEntry) charge() int { return entryBytes + len(e.data) }

func (e *logEntry) ns() Namespace { return Namespaces[int(e.topic)%len(Namespaces)] }

// ringKeep is the most slots a drained ring keeps (40 KiB): enough for a
// reader that keeps up, so steady appends allocate nothing.
const ringKeep = 1024

// cursor is one subscription's place in the log, guarded by the log's mutex.
// A remote cursor is leased: the sweep reclaims it after the log's expiry
// without a receive, unless a receive is parked on it (inRecv).
type cursor struct {
	mask     uint32 // prefixMask of the subscription
	next     uint64 // sequence number of the next entry to read
	dropped  int64  // entries its mask covers that the budget shed unread
	closed   bool   // released: unsubscribed, expired or the service closed
	remote   bool
	lastSeen time.Time
	inRecv   int
}

// updateLog is a service's update stream: a ring of entries under one mutex,
// read through cursors.
type updateLog struct {
	// want is the OR of every open cursor's mask, written under mu: the
	// publish path's one load.
	want atomic.Uint32

	expiry time.Duration // leaseExpiry; in-package tests shorten it
	budget int           // logBudget; in-package tests shrink it

	mu      sync.Mutex
	ring    []logEntry // power-of-two length; sequence s lives at ring[s&(len-1)]
	head    uint64     // oldest retained sequence number
	tail    uint64     // next sequence number to append
	bytes   int        // Σ charge() over the retained entries
	cursors map[int64]*cursor
	nextID  int64
	wake    chan struct{} // closed by the next append; nil while no read waits
	closed  bool
}

func (l *updateLog) slot(seq uint64) *logEntry { return &l.ring[seq&uint64(len(l.ring)-1)] }

// open sweeps, then registers a cursor that reads from the log's tail on. A
// remote one is leased from now.
func (l *updateLog) open(mask uint32, remote bool, now time.Time) (int64, *cursor, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, nil, ErrServiceStopped
	}
	l.sweepLocked(now)
	l.nextID++
	c := &cursor{mask: mask, next: l.tail, remote: remote, lastSeen: now}
	l.cursors[l.nextID] = c
	l.want.Store(l.want.Load() | mask)
	telCursors.Inc()
	return l.nextID, c, nil
}

// lease finds remote cursor id for a receive, refreshing its lease before
// sweeping so a subscriber whose gap between receives just exceeded the
// expiry does not reap itself on the way in.
func (l *updateLog) lease(id int64, now time.Time) (*cursor, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.cursors[id]
	if ok = ok && c.remote; ok {
		c.lastSeen = now
	}
	l.sweepLocked(now)
	return c, ok
}

// remove releases cursor id if it exists and is remote or local as asked: a
// remote client cannot release an in-process subscription by guessing its id.
func (l *updateLog) remove(id int64, remote bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.cursors[id]; ok && c.remote == remote {
		l.removeLocked(id, c)
	}
}

// removeLocked releases a cursor: a read parked on it answers closed, and the
// entries only it held are released.
func (l *updateLog) removeLocked(id int64, c *cursor) {
	delete(l.cursors, id)
	c.closed = true
	telCursors.Dec()
	var want uint32
	for _, o := range l.cursors {
		want |= o.mask
	}
	l.want.Store(want)
	l.wakeLocked()
	l.trimLocked()
}

// closeAll releases every cursor and refuses new ones: the service is
// closing, and neither a sweep nor an unsub will come to reclaim them.
func (l *updateLog) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for id, c := range l.cursors {
		l.removeLocked(id, c)
	}
}

// sweepLocked reclaims remote cursors idle beyond the expiry. Stream handlers
// call it, so dead subscribers are collected as a side effect of live traffic
// (no janitor goroutine to leak).
func (l *updateLog) sweepLocked(now time.Time) {
	for id, c := range l.cursors {
		if c.remote && c.inRecv == 0 && now.Sub(c.lastSeen) > l.expiry {
			l.removeLocked(id, c)
			telExpired.Inc()
		}
	}
}

// appendRun logs a run of publishes (or one alert transition) on topic tp
// under one lock acquisition, if a cursor wants the topic, then sheds what
// exceeds the budget and wakes the parked reads.
func (l *updateLog) appendRun(tp int, t float64, run []pub) {
	l.mu.Lock()
	if l.want.Load()&(1<<tp) == 0 { // the last cursor for tp closed since the caller looked
		l.mu.Unlock()
		return
	}
	before := l.bytes
	for k := range run {
		if l.tail-l.head == uint64(len(l.ring)) {
			old := l.ring
			l.ring = make([]logEntry, max(64, 2*len(old)))
			for s := l.head; s < l.tail; s++ {
				*l.slot(s) = old[s&uint64(len(old)-1)]
			}
		}
		e := l.slot(l.tail)
		*e = logEntry{topic: uint8(tp), t: t, data: run[k].enc}
		l.tail++
		l.bytes += e.charge()
	}
	telLogBytes.Add(int64(l.bytes - before))
	// Shed: charge each entry dropped to the cursors that lose it, moving
	// them past it; this per-cursor work runs only on overflow.
	to := l.head
	for over := l.bytes - l.budget; over > 0 && to < l.tail; to++ {
		e := l.slot(to)
		over -= e.charge()
		for _, c := range l.cursors {
			if c.next <= to {
				if c.mask&(1<<e.topic) != 0 {
					c.dropped++
					telSubDropped.Inc()
				}
				c.next = to + 1
			}
		}
	}
	l.releaseLocked(to)
	wake := l.wake
	l.wake = nil
	l.mu.Unlock()
	if wake != nil {
		close(wake) // past the unlock, so the woken reads do not queue on it
	}
}

// trimLocked releases every entry all cursors have read. A drained ring is
// dropped once the last cursor has gone, or once a backlog grew it past
// ringKeep slots, so a burst's slots do not stay resident.
func (l *updateLog) trimLocked() {
	to := l.tail
	for _, c := range l.cursors {
		to = min(to, c.next)
	}
	l.releaseLocked(to)
	if l.head == l.tail && (len(l.cursors) == 0 || len(l.ring) > ringKeep) {
		l.ring = nil
	}
}

// releaseLocked drops the entries before sequence number to, zeroing their
// slots so no frame stays pinned.
func (l *updateLog) releaseLocked(to uint64) {
	freed := 0
	for ; l.head < to; l.head++ {
		e := l.slot(l.head)
		freed += e.charge()
		*e = logEntry{}
	}
	l.bytes -= freed
	telLogBytes.Add(-int64(freed))
}

func (l *updateLog) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// read is the one reader of the log, behind both soma.updates.recv and
// SubscribeLocal. It parks until c has an entry its mask covers, wait
// elapses, ctx ends or c is released, then appends up to max of those
// entries to dst and advances c past them — under the log's mutex, so two
// reads on one cursor never return the same entry. While it runs, the sweep
// leaves c alone. dropped is c's cumulative loss; closed reports a released
// cursor.
func (l *updateLog) read(ctx context.Context, c *cursor, max int, wait time.Duration, dst []logEntry) (ents []logEntry, dropped int64, closed bool) {
	var timer *time.Timer
	expired := false
	l.mu.Lock()
	c.inRecv++
	defer func() {
		c.inRecv--
		c.lastSeen = time.Now()
		l.mu.Unlock()
	}()
	for !c.closed {
		from := c.next
		for ; c.next < l.tail && len(dst) < max; c.next++ {
			if e := l.slot(c.next); c.mask&(1<<e.topic) != 0 {
				dst = append(dst, *e)
			}
		}
		if c.next != from {
			l.trimLocked()
		}
		if len(dst) > 0 || expired {
			return dst, c.dropped, false
		}
		if l.wake == nil {
			l.wake = make(chan struct{})
		}
		wake := l.wake
		l.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(wait)
			defer timer.Stop()
		}
		select {
		case <-wake:
		case <-timer.C:
			expired = true
		case <-ctx.Done():
			expired = true
		}
		l.mu.Lock()
	}
	return dst, c.dropped, true
}

// publishAlertStream logs one alert transition on its namespace's alert
// topic (the alertEngine's notify hook).
func (s *Service) publishAlertStream(ns Namespace, tree *conduit.Node) {
	i := slices.Index(Namespaces, ns)
	if tp := i + len(Namespaces); i >= 0 && s.updates.want.Load()&(1<<tp) != 0 {
		t, _ := tree.Float("time")
		s.updates.appendRun(tp, t, []pub{{ns: ns, enc: tree.EncodeBinary()}})
	}
}

// SubscribeLocal opens an in-process subscription (ns semantics as
// Client.Subscribe: "" = every namespace, NSAlerts = alert transitions). A
// goroutine reads its cursor and delivers decoded updates on the channel;
// cancel releases the cursor and returns once the channel is closed, as does
// closing the service.
func (s *Service) SubscribeLocal(ns Namespace) (<-chan Update, func(), error) {
	prefix, err := subPrefix(ns)
	if err != nil {
		return nil, nil, err
	}
	id, c, err := s.updates.open(prefixMask(prefix), false, time.Now())
	if err != nil {
		return nil, nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	ch := make(chan Update, 64) // one read batch
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		var batch [64]logEntry
		for ctx.Err() == nil {
			ents, dropped, closed := s.updates.read(ctx, c, len(batch), maxRecvWait, batch[:0])
			for _, e := range ents {
				tree, err := conduit.DecodeBinary(e.data)
				if err != nil {
					continue // ingest validated every frame; unreachable
				}
				select {
				case ch <- Update{NS: e.ns(), Time: e.t, Alert: int(e.topic) >= len(Namespaces), Tree: tree, Dropped: dropped}:
				case <-ctx.Done():
					return
				}
			}
			if closed {
				return
			}
		}
	}()
	return ch, func() {
		stop()
		s.updates.remove(id, false)
		<-done
	}, nil
}

// Update is one pushed increment: a publish into a subscribed namespace, or
// (Alert true) a threshold-alert transition.
type Update struct {
	NS    Namespace
	Time  float64
	Alert bool
	Tree  *conduit.Node
	// Dropped is the cumulative count of updates this subscription lost
	// because the service's update log shed them past its byte budget before
	// they were read (slow-consumer accounting).
	Dropped int64
}

// ---------------------------------------------------------------------------
// Service surface: the three stream rows.

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
	id, _, err := s.updates.open(prefixMask(string(prefix)), true, time.Now())
	if err != nil {
		return nil, err
	}
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
	s.updates.remove(id, true)
	return okFrame, nil
}

var updatesRecvFields = []string{"id", "max", "wait_ms"}

// handleUpdatesRecv serves soma.updates.recv {id, max, wait_ms} →
// {dropped, closed, msgs/<NNNNNN>/{topic, ns, t, data}}, the long-poll receive:
// it reads the subscription's cursor, parking until an update is logged for
// it, the wait window elapses, or the engine closes (the blocking-row
// context), and answers up to max updates. The answer is written around the
// updates' own frames: data is the bytes the publisher sent, validated at
// ingest and not encoded again.
func (s *Service) handleUpdatesRecv(ctx context.Context, payload []byte) (mercury.Response, error) {
	var f [3][]byte
	if err := conduit.SliceFields(payload, updatesRecvFields, f[:]); err != nil {
		return mercury.Response{}, err
	}
	id, _ := conduit.RawInt(f[0])
	c, ok := s.updates.lease(id, time.Now())
	if !ok {
		return mercury.Response{}, fmt.Errorf("soma: no update subscription %d", id)
	}

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
	var few [8]logEntry // the usual batch stays on the stack
	ents, dropped, closed := s.updates.read(ctx, c, int(maxMsgs), wait, few[:0])

	bp := conduit.GetEncodeBuffer()
	b := conduit.AppendRawFrame(*bp, nil) // the magic; the root node follows
	b = conduit.AppendRawObject(b, 3)
	b = conduit.AppendRawName(b, "dropped")
	b = conduit.AppendRawInt(b, dropped)
	b = conduit.AppendRawName(b, "closed")
	b = conduit.AppendRawBool(b, closed)
	b = conduit.AppendRawName(b, "msgs")
	b = conduit.AppendRawObject(b, len(ents))
	var key [20]byte
	for i := range ents {
		e := &ents[i]
		b = conduit.AppendRawName(b, string(conduit.AppendIndexKey(key[:0], i)))
		b = conduit.AppendRawObject(b, 4)
		b = conduit.AppendRawName(b, "topic")
		b = conduit.AppendRawString(b, topics[e.topic])
		b = conduit.AppendRawName(b, "ns")
		b = conduit.AppendRawString(b, string(e.ns()))
		b = conduit.AppendRawName(b, "t")
		b = conduit.AppendRawFloat(b, e.t)
		b = conduit.AppendRawName(b, "data")
		b = append(b, e.data[4:]...) // the frame's root node, past its magic
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
// the lease's cumulative drop count, and whether the subscription was
// released. The frame is network input: DecodeBinary rejects a malformed one
// whole, and an entry without a string topic, a numeric t or a data subtree
// is skipped.
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

// Dropped reports the cumulative updates the service's byte budget shed
// before this subscription read them, across its lifetime (surviving
// reconnects).
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
// Delivery is push: the service logs publishes as they arrive and the
// subscription long-polls its cursor (no Query polling). If the connection
// drops, the subscription redials the service address and resubscribes with
// exponential backoff until the context is cancelled; updates published
// while disconnected are lost (and not counted in Dropped — only what the
// server's byte budget shed is).
func (c *Client) Subscribe(ctx context.Context, ns Namespace, pattern string) (*Subscription, error) {
	prefix, err := subPrefix(ns)
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
			// Connection lost or subscription released: redial and
			// resubscribe on the shared backoff policy (exponential with full
			// jitter, so a fleet of subscribers does not redial a healing
			// service in lockstep).
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
