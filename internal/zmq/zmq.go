// Package zmq is the component messaging of the RADICAL-Pilot analog
// (internal/pilot), modelled on how RP itself uses ZeroMQ: every component
// gets its inputs from a queue and pushes outputs to another component's
// queue, and state notifications fan out over pub/sub.
//
// Two socket patterns are implemented:
//
//   - Push/Pull: a multi-producer, multi-consumer work queue. Messages are
//     delivered to exactly one puller.
//   - Pub/Sub: topic-prefixed fan-out. Every subscriber whose topic prefix
//     matches receives a copy; slow subscribers drop (ZeroMQ's high-water
//     mark behaviour) rather than stall the publisher.
//
// Queues are in-process: the pilot Agent components run in one process in
// this reproduction, as they do in RP's Agent. Nothing of this package
// crosses a socket.
package zmq

import (
	"errors"
	"strings"
	"sync"

	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Process-wide pub/sub telemetry; per-queue depth gauges are created per
// queue name in NewQueue.
var (
	telPubPublished = telemetry.Default().Counter("zmq.pubsub.published")
	telPubDelivered = telemetry.Default().Counter("zmq.pubsub.delivered")
	telPubDropped   = telemetry.Default().Counter("zmq.pubsub.dropped")
)

// ErrClosed is returned by operations on a closed socket.
var ErrClosed = errors.New("zmq: socket closed")

// DefaultHighWater is the per-subscriber buffered message count before the
// publisher starts dropping for that subscriber.
const DefaultHighWater = 1024

// Message is an opaque payload with an optional topic (pub/sub only).
type Message struct {
	Topic   string
	Payload interface{}
}

// ---------------------------------------------------------------------------
// Push/Pull

// Queue is a push/pull work queue.
type Queue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	buf   []interface{}
	done  bool
	depth *telemetry.Gauge // queue backpressure, by queue name
}

// NewQueue creates an unbounded push/pull queue; name labels its depth gauge.
func NewQueue(name string) *Queue {
	q := &Queue{depth: telemetry.Default().Gauge("zmq.queue." + name + ".depth")}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a message; it never blocks. Push on a closed queue returns
// ErrClosed.
func (q *Queue) Push(v interface{}) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done {
		return ErrClosed
	}
	q.buf = append(q.buf, v)
	q.depth.Set(int64(len(q.buf)))
	q.cond.Signal()
	return nil
}

// Pull dequeues the next message, blocking until one is available or the
// queue is closed. ok is false only when the queue is closed and drained.
func (q *Queue) Pull() (v interface{}, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.done {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return nil, false
	}
	v = q.buf[0]
	q.buf = q.buf[1:]
	q.depth.Set(int64(len(q.buf)))
	return v, true
}

// TryPull dequeues without blocking.
func (q *Queue) TryPull() (v interface{}, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) == 0 {
		return nil, false
	}
	v = q.buf[0]
	q.buf = q.buf[1:]
	q.depth.Set(int64(len(q.buf)))
	return v, true
}

// Close marks the queue closed; pullers drain remaining messages and then
// observe ok == false.
func (q *Queue) Close() {
	q.mu.Lock()
	q.done = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Pub/Sub

// PubSub is a topic-prefix fan-out bus.
type PubSub struct {
	mu     sync.Mutex
	subs   map[int]*subscription
	nextID int
	closed bool
}

type subscription struct {
	prefix string
	ch     chan Message
}

// NewPubSub creates a bus whose subscribers buffer up to DefaultHighWater
// messages each.
func NewPubSub() *PubSub { return &PubSub{subs: map[int]*subscription{}} }

// Subscribe registers interest in every topic beginning with prefix (""
// subscribes to everything). cancel removes the subscription and closes the
// channel.
func (b *PubSub) Subscribe(prefix string) (ch <-chan Message, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sub := &subscription{prefix: prefix, ch: make(chan Message, DefaultHighWater)}
	if b.closed {
		close(sub.ch)
		return sub.ch, func() {}
	}
	id := b.nextID
	b.nextID++
	b.subs[id] = sub
	return sub.ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if s, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(s.ch)
		}
	}
}

// Publish fans msg out to every matching subscriber. A full subscriber drops
// the message (counted in zmq.pubsub.dropped) instead of blocking the
// publisher.
func (b *PubSub) Publish(topic string, payload interface{}) error {
	msg := Message{Topic: topic, Payload: payload}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	telPubPublished.Inc()
	for _, sub := range b.subs {
		if !strings.HasPrefix(topic, sub.prefix) {
			continue
		}
		select {
		case sub.ch <- msg:
			telPubDelivered.Inc()
		default:
			telPubDropped.Inc()
		}
	}
	return nil
}

// Close shuts the bus down and closes all subscriber channels; subscribers
// drain what their buffers hold before seeing the close.
func (b *PubSub) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, sub := range b.subs {
		close(sub.ch)
		delete(b.subs, id)
	}
}
