package zmq

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Remote pub/sub access: the fan-out half of the remote deployment path, the
// way remote.go covers queues. A PubSub attached to a Server becomes
// reachable over mercury: remote clients register a topic-prefix
// subscription, then long-poll for batches of matching messages. Delivery
// semantics are exactly the local bus's — per-subscriber buffers with
// high-water-mark dropping — and each receive reports the subscription's
// cumulative drop count (from PubSub's per-subscriber accounting), so a slow
// network consumer can see what it lost.
//
// The receive RPC blocks server-side until a message arrives, the poll
// window elapses, or the engine shuts down; it is registered through
// mercury's blocking-handler path so a waiting subscriber never stalls
// engine Close. Subscriptions are leased: a subscriber that stops calling
// recv (crashed, disconnected) is dropped after ExpireAfter of silence and
// its bus subscription is cancelled, reclaiming its buffer.

// RPC names used by pub/sub serving.
const (
	rpcPubSubSub   = "zmq.pubsub.sub"
	rpcPubSubRecv  = "zmq.pubsub.recv"
	rpcPubSubUnsub = "zmq.pubsub.unsub"
	rpcPubSubStats = "zmq.pubsub.stats"
)

// DefaultSubExpiry is how long a remote subscription survives without a
// receive call before the server reclaims it.
const DefaultSubExpiry = 60 * time.Second

// Remote-subscription telemetry: the gauge tracks live leases across all
// served buses in the process; expiries count reclaimed dead subscribers.
var (
	telRemoteSubs    = telemetry.Default().Gauge("zmq.pubsub.remote.subscribers")
	telRemoteExpired = telemetry.Default().Counter("zmq.pubsub.remote.expired")
)

type pubsubWire struct {
	Bus    string `json:"bus"`
	Prefix string `json:"prefix,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Max    int    `json:"max,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

type pubsubSubResp struct {
	ID uint64 `json:"id"`
}

type wireMessage struct {
	Topic   string          `json:"topic"`
	Payload json.RawMessage `json:"payload"`
}

type pubsubRecvResp struct {
	Msgs []wireMessage `json:"msgs,omitempty"`
	// Dropped is the subscription's cumulative high-water-mark drop count.
	Dropped int64 `json:"dropped"`
	// Closed reports that the bus shut down; no further messages will come.
	Closed bool `json:"closed,omitempty"`
}

// servedBus is one PubSub exposed to remote subscribers.
type servedBus struct {
	bus    *PubSub
	expiry time.Duration

	mu     sync.Mutex
	subs   map[uint64]*remoteSubState
	nextID uint64
}

// remoteSubState is the server side of one remote subscription: a local bus
// subscription plus lease bookkeeping.
type remoteSubState struct {
	ch       <-chan Message
	cancel   func()
	stats    func() SubStats
	lastSeen time.Time
	// inRecv counts receive calls currently parked on this subscription, so
	// the sweeper never expires a lease that is actively being polled.
	inRecv int
}

// AttachBus makes b reachable by remote subscribers under the given name,
// with the default lease expiry. The pub/sub RPC handlers are registered on
// first attach.
func (s *Server) AttachBus(name string, b *PubSub) {
	s.AttachBusExpiry(name, b, DefaultSubExpiry)
}

// AttachBusExpiry is AttachBus with an explicit lease duration: remote
// subscriptions idle (no receive call) for longer than expiry are dropped.
func (s *Server) AttachBusExpiry(name string, b *PubSub, expiry time.Duration) {
	if expiry <= 0 {
		expiry = DefaultSubExpiry
	}
	s.busMu.Lock()
	defer s.busMu.Unlock()
	if s.buses == nil {
		s.buses = map[string]*servedBus{}
		s.engine.Register(rpcPubSubSub, s.handleSub)
		s.engine.RegisterBlocking(rpcPubSubRecv, s.handleRecv)
		s.engine.Register(rpcPubSubUnsub, s.handleUnsub)
		s.engine.Register(rpcPubSubStats, s.handleSubStats)
	}
	s.buses[name] = &servedBus{bus: b, expiry: expiry, subs: map[uint64]*remoteSubState{}}
}

func (s *Server) servedBus(raw []byte) (*servedBus, pubsubWire, error) {
	var w pubsubWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, w, err
	}
	s.busMu.Lock()
	sb, ok := s.buses[w.Bus]
	s.busMu.Unlock()
	if !ok {
		return nil, w, fmt.Errorf("zmq: no bus named %q", w.Bus)
	}
	return sb, w, nil
}

// sweep reclaims leases idle beyond the expiry. Called from every pub/sub
// handler, so dead subscribers are collected as a side effect of live
// traffic (no janitor goroutine to leak).
func (sb *servedBus) sweep(now time.Time) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for id, st := range sb.subs {
		if st.inRecv == 0 && now.Sub(st.lastSeen) > sb.expiry {
			st.cancel()
			delete(sb.subs, id)
			telRemoteSubs.Dec()
			telRemoteExpired.Inc()
		}
	}
}

func (s *Server) handleSub(_ context.Context, raw []byte) ([]byte, error) {
	sb, w, err := s.servedBus(raw)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	sb.sweep(now)
	ch, cancel, stats := sb.bus.SubscribeWithStats(w.Prefix)
	sb.mu.Lock()
	sb.nextID++
	id := sb.nextID
	sb.subs[id] = &remoteSubState{ch: ch, cancel: cancel, stats: stats, lastSeen: now}
	sb.mu.Unlock()
	telRemoteSubs.Inc()
	return json.Marshal(pubsubSubResp{ID: id})
}

func (s *Server) handleUnsub(_ context.Context, raw []byte) ([]byte, error) {
	sb, w, err := s.servedBus(raw)
	if err != nil {
		return nil, err
	}
	sb.mu.Lock()
	st, ok := sb.subs[w.ID]
	delete(sb.subs, w.ID)
	sb.mu.Unlock()
	if ok {
		st.cancel()
		telRemoteSubs.Dec()
	}
	return nil, nil
}

func (s *Server) handleSubStats(_ context.Context, raw []byte) ([]byte, error) {
	sb, _, err := s.servedBus(raw)
	if err != nil {
		return nil, err
	}
	sb.sweep(time.Now())
	return json.Marshal(sb.bus.Stats())
}

// handleRecv is the long-poll receive: it parks until a message is buffered
// for the subscription, the wait window elapses, or the engine closes (the
// blocking-handler context), then drains up to Max messages.
func (s *Server) handleRecv(ctx context.Context, raw []byte) (mercury.Response, error) {
	sb, w, err := s.servedBus(raw)
	if err != nil {
		return mercury.Response{}, err
	}
	// Refresh the calling subscription's own lease before sweeping: a
	// subscriber whose gap between recv calls just exceeded the expiry must
	// not reap itself on the way in.
	now := time.Now()
	sb.mu.Lock()
	st, ok := sb.subs[w.ID]
	if ok {
		st.lastSeen = now
		st.inRecv++
	}
	sb.mu.Unlock()
	sb.sweep(now)
	if !ok {
		return mercury.Response{}, fmt.Errorf("zmq: no subscription %d on bus %q", w.ID, w.Bus)
	}
	defer func() {
		sb.mu.Lock()
		st.inRecv--
		st.lastSeen = time.Now()
		sb.mu.Unlock()
	}()

	maxMsgs := w.Max
	if maxMsgs < 1 {
		maxMsgs = 64
	}
	wait := time.Duration(w.WaitMS) * time.Millisecond
	if wait <= 0 {
		wait = time.Millisecond
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()

	var resp pubsubRecvResp
	appendMsg := func(m Message) error {
		payload, err := json.Marshal(m.Payload)
		if err != nil {
			return err
		}
		resp.Msgs = append(resp.Msgs, wireMessage{Topic: m.Topic, Payload: payload})
		return nil
	}

	// Park for the first message, then drain whatever else is buffered.
	select {
	case m, open := <-st.ch:
		if !open {
			resp.Closed = true
		} else if err := appendMsg(m); err != nil {
			return mercury.Response{}, err
		}
	case <-timer.C:
	case <-ctx.Done():
	}
drain:
	for len(resp.Msgs) < maxMsgs && !resp.Closed {
		select {
		case m, open := <-st.ch:
			if !open {
				resp.Closed = true
			} else if err := appendMsg(m); err != nil {
				return mercury.Response{}, err
			}
		default:
			break drain
		}
	}
	resp.Dropped = st.stats().Dropped
	out, err := json.Marshal(&resp)
	return mercury.Response{Payload: out}, err
}

// ---------------------------------------------------------------------------
// RemoteSub: the client side of a served bus.

// RemoteSub is a remote subscription to a served PubSub. Receive with Recv;
// a RemoteSub is intended for a single consumer (concurrent Recv calls on
// one RemoteSub interleave messages arbitrarily).
type RemoteSub struct {
	ep    *mercury.Endpoint
	ownEP bool
	bus   string
	id    uint64
}

// DialSub connects to the bus served at addr under busName and registers a
// subscription for topics beginning with prefix. The connection is owned by
// the RemoteSub and released by Close.
func DialSub(addr, busName, prefix string) (*RemoteSub, error) {
	ep, err := mercury.Lookup(addr)
	if err != nil {
		return nil, err
	}
	rs, err := SubscribeRemote(ep, busName, prefix)
	if err != nil {
		ep.Close()
		return nil, err
	}
	rs.ownEP = true
	return rs, nil
}

// SubscribeRemote registers a subscription over an existing endpoint (shared
// with other RPC traffic; mercury multiplexes). Close does not release a
// shared endpoint.
func SubscribeRemote(ep *mercury.Endpoint, busName, prefix string) (*RemoteSub, error) {
	req, err := json.Marshal(pubsubWire{Bus: busName, Prefix: prefix})
	if err != nil {
		return nil, err
	}
	raw, err := ep.Call(context.Background(), rpcPubSubSub, req)
	if err != nil {
		return nil, err
	}
	var resp pubsubSubResp
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return &RemoteSub{ep: ep, bus: busName, id: resp.ID}, nil
}

// Recv long-polls for the next batch of messages: it returns as soon as at
// least one message is available (up to max per call), or with an empty
// batch after wait. dropped is the subscription's cumulative server-side
// drop count. Recv returns ErrClosed once the served bus has shut down.
// Message payloads are json.RawMessage.
func (rs *RemoteSub) Recv(ctx context.Context, max int, wait time.Duration) (msgs []Message, dropped int64, err error) {
	req, err := json.Marshal(pubsubWire{Bus: rs.bus, ID: rs.id, Max: max, WaitMS: wait.Milliseconds()})
	if err != nil {
		return nil, 0, err
	}
	raw, err := rs.ep.Call(ctx, rpcPubSubRecv, req)
	if err != nil {
		return nil, 0, err
	}
	var resp pubsubRecvResp
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, 0, err
	}
	for _, m := range resp.Msgs {
		msgs = append(msgs, Message{Topic: m.Topic, Payload: m.Payload})
	}
	if resp.Closed && len(msgs) == 0 {
		return nil, resp.Dropped, ErrClosed
	}
	return msgs, resp.Dropped, nil
}

// Unsubscribe releases the server-side subscription but keeps the endpoint.
func (rs *RemoteSub) Unsubscribe() error {
	req, err := json.Marshal(pubsubWire{Bus: rs.bus, ID: rs.id})
	if err != nil {
		return err
	}
	_, err = rs.ep.Call(context.Background(), rpcPubSubUnsub, req)
	return err
}

// Close unsubscribes and, when the connection is owned (DialSub), releases
// it.
func (rs *RemoteSub) Close() error {
	err := rs.Unsubscribe()
	if rs.ownEP {
		if cerr := rs.ep.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
