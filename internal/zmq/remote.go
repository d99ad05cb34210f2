package zmq

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/mercury"
)

// Remote queue access. RP's subsystems "can execute locally or remotely,
// communicating over TCP/IP and enabling multiple deployment scenarios"
// (paper §2.1); this file provides that deployment path for queues: a Queue
// served over a mercury engine, and a RemoteQueue client mirroring the
// local API. Payloads must be JSON-serializable (the pilot's task
// descriptions and control messages are).

// RPC names used by queue serving.
const (
	rpcQueuePush = "zmq.queue.push"
	rpcQueuePull = "zmq.queue.pull"
	rpcQueueLen  = "zmq.queue.len"
)

type queueWire struct {
	Queue   string          `json:"queue"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

type queuePullResp struct {
	OK      bool            `json:"ok"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Serve exposes queues (and pub/sub buses, see remotepubsub.go) by name on
// a mercury engine. Multiple queues can be served by one engine; remote
// clients address them by queue name.
type Server struct {
	engine *mercury.Engine
	queues map[string]*Queue

	busMu sync.Mutex
	buses map[string]*servedBus
}

// NewServer returns a server to which queues and buses are attached; an
// engine exposes only the RPCs of what was attached.
func NewServer(engine *mercury.Engine) *Server {
	return &Server{engine: engine}
}

// Attach makes q reachable by remote clients under its name. The queue RPC
// handlers are registered on first attach; attach before the engine serves.
func (s *Server) Attach(q *Queue) {
	if s.queues == nil {
		s.queues = map[string]*Queue{}
		s.engine.Register(rpcQueuePush, s.handlePush)
		s.engine.Register(rpcQueuePull, s.handlePull)
		s.engine.Register(rpcQueueLen, s.handleLen)
	}
	s.queues[q.Name()] = q
}

func (s *Server) queue(raw []byte) (*Queue, queueWire, error) {
	var w queueWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, w, err
	}
	q, ok := s.queues[w.Queue]
	if !ok {
		return nil, w, fmt.Errorf("zmq: no queue named %q", w.Queue)
	}
	return q, w, nil
}

func (s *Server) handlePush(_ context.Context, raw []byte) ([]byte, error) {
	q, w, err := s.queue(raw)
	if err != nil {
		return nil, err
	}
	if err := q.Push(w.Payload); err != nil {
		return nil, err
	}
	return nil, nil
}

func (s *Server) handlePull(_ context.Context, raw []byte) ([]byte, error) {
	q, _, err := s.queue(raw)
	if err != nil {
		return nil, err
	}
	v, ok := q.TryPull()
	resp := queuePullResp{OK: ok}
	if ok {
		switch payload := v.(type) {
		case json.RawMessage:
			resp.Payload = payload
		case []byte:
			resp.Payload = payload
		default:
			data, err := json.Marshal(payload)
			if err != nil {
				return nil, err
			}
			resp.Payload = data
		}
	}
	return json.Marshal(resp)
}

func (s *Server) handleLen(_ context.Context, raw []byte) ([]byte, error) {
	q, _, err := s.queue(raw)
	if err != nil {
		return nil, err
	}
	return json.Marshal(q.Len())
}

// RemoteQueue is the client side of a served queue. Pulls are non-blocking
// polls (remote consumers poll at their own cadence; blocking semantics
// over a network hop would couple failure domains).
type RemoteQueue struct {
	name string
	ep   *mercury.Endpoint
}

// Dial connects to a queue served at addr under the given name, with a
// resilient default policy: bounded connects and a couple of backed-off
// retries. Only zmq.queue.len is re-sent once a request may have reached the
// server — a replayed push would duplicate a task description, a replayed
// pull would lose one — so push/pull retries cover the connect stage only.
func Dial(addr, name string) (*RemoteQueue, error) {
	return DialPolicy(addr, name, &mercury.CallPolicy{
		ConnectTimeout: 5 * time.Second,
		MaxRetries:     2,
		Backoff:        mercury.Backoff{Base: 50 * time.Millisecond, Max: time.Second},
		Idempotent:     mercury.IdempotentSet(rpcQueueLen),
	})
}

// DialPolicy is Dial with an explicit mercury call policy (nil = default
// policy: bounded connects, no retries).
func DialPolicy(addr, name string, p *mercury.CallPolicy) (*RemoteQueue, error) {
	ep, err := mercury.LookupPolicy(addr, p)
	if err != nil {
		return nil, err
	}
	return &RemoteQueue{name: name, ep: ep}, nil
}

// Name returns the remote queue's name.
func (rq *RemoteQueue) Name() string { return rq.name }

// Push marshals v to JSON and enqueues it remotely.
func (rq *RemoteQueue) Push(v interface{}) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := json.Marshal(queueWire{Queue: rq.name, Payload: payload})
	if err != nil {
		return err
	}
	_, err = rq.ep.Call(context.Background(), rpcQueuePush, req)
	return err
}

// TryPull dequeues one message into out (a pointer). ok reports whether a
// message was available.
func (rq *RemoteQueue) TryPull(out interface{}) (ok bool, err error) {
	req, err := json.Marshal(queueWire{Queue: rq.name})
	if err != nil {
		return false, err
	}
	raw, err := rq.ep.Call(context.Background(), rpcQueuePull, req)
	if err != nil {
		return false, err
	}
	var resp queuePullResp
	if err := json.Unmarshal(raw, &resp); err != nil {
		return false, err
	}
	if !resp.OK {
		return false, nil
	}
	if out != nil {
		if err := json.Unmarshal(resp.Payload, out); err != nil {
			return true, err
		}
	}
	return true, nil
}

// Len returns the remote queue's current depth.
func (rq *RemoteQueue) Len() (int, error) {
	req, err := json.Marshal(queueWire{Queue: rq.name})
	if err != nil {
		return 0, err
	}
	raw, err := rq.ep.Call(context.Background(), rpcQueueLen, req)
	if err != nil {
		return 0, err
	}
	var n int
	err = json.Unmarshal(raw, &n)
	return n, err
}

// Close releases the connection.
func (rq *RemoteQueue) Close() error { return rq.ep.Close() }
