package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
	"github.com/hpcobs/gosoma/internal/zmq"
)

// Live namespace subscriptions: every publish is fanned out over the
// service's update bus (a zmq.PubSub served remotely through the engine, see
// zmq/remotepubsub.go), so clients receive incremental updates pushed to
// them instead of polling Query. Topics are "ns/<namespace>/" for publishes
// and "alerts/<namespace>/" for threshold-alert transitions (the trailing
// delimiter keeps the bus's prefix match segment-exact, so no namespace can
// shadow another whose name it prefixes); the reserved NSAlerts
// pseudo-namespace subscribes to the latter.
//
// Backpressure: fan-out is fire-and-forget with per-subscriber high-water
// buffers — a slow subscriber drops (counted, reported on every receive via
// Update.Dropped) rather than stalling ingest. When nobody subscribes, the
// publish path pays one atomic load and skips payload construction.

// UpdatesBusName is the served bus carrying publish updates and alert
// transitions.
const UpdatesBusName = "soma.updates"

// telPushLatency tracks bus fan-out cost per publish (encode + enqueue to
// every subscriber), observed only when subscribers exist.
var telPushLatency = telemetry.Default().Histogram("core.stream.push.latency")

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

// updateWire is the bus payload: the published tree conduit-encoded (JSON
// base64 over the remote path) plus its namespace and service timestamp. Data
// is the publish's own frame — for a wire publish a subslice of the service's
// retained copy of the request, shared with the history ring and immutable —
// so fan-out encodes nothing.
type updateWire struct {
	NS   string  `json:"ns"`
	T    float64 `json:"t"`
	Data []byte  `json:"data"`
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

// DecodeUpdate unpacks a bus message (local subscription or remote receive)
// into an Update. Dropped is left for the caller (it is per-subscription,
// not per-message).
func DecodeUpdate(m zmq.Message) (Update, error) {
	var w updateWire
	switch p := m.Payload.(type) {
	case updateWire:
		w = p
	case json.RawMessage:
		if err := json.Unmarshal(p, &w); err != nil {
			return Update{}, err
		}
	case []byte:
		if err := json.Unmarshal(p, &w); err != nil {
			return Update{}, err
		}
	default:
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
// Client surface.

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
	// service without a served update bus fails fast.
	rs, err := zmq.SubscribeRemote(c.ep, UpdatesBusName, prefix)
	if err != nil {
		return nil, fmt.Errorf("soma: subscribe %s: %w", ns, err)
	}
	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan Update, 64)
	sub := &Subscription{C: ch, cancel: cancel, done: make(chan struct{})}
	go c.subscribeLoop(ctx, sub, ch, rs, prefix, pattern)
	return sub, nil
}

// subscribeLoop is the receive pump: long-poll batches, decode, filter,
// deliver; on transport failure, redial + resubscribe with backoff.
func (c *Client) subscribeLoop(ctx context.Context, sub *Subscription, ch chan<- Update, rs *zmq.RemoteSub, prefix, pattern string) {
	defer close(sub.done)
	defer close(ch)
	var ownEP *mercury.Endpoint // reconnect endpoint; nil while on c.ep
	defer func() {
		if rs != nil {
			rs.Unsubscribe() // best effort; the connection may be gone
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
		msgs, dropped, err := rs.Recv(ctx, 64, 30*time.Second)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Connection lost or bus closed: redial and resubscribe on the
			// shared backoff policy (exponential with full jitter, so a
			// fleet of subscribers does not redial a healing service in
			// lockstep).
			droppedBase += droppedLease
			droppedLease = 0
			rs = nil
			bo := mercury.Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second}
			for attempt := 0; rs == nil; attempt++ {
				if ownEP != nil {
					ownEP.Close()
					ownEP = nil
				}
				if ep, derr := c.redial(); derr == nil {
					if nrs, serr := zmq.SubscribeRemote(ep, UpdatesBusName, prefix); serr == nil {
						ownEP, rs = ep, nrs
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
		droppedLease = dropped
		sub.dropped.Store(droppedBase + droppedLease)
		for _, m := range msgs {
			u, derr := DecodeUpdate(m)
			if derr != nil {
				continue
			}
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
