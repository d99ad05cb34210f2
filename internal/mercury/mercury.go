// Package mercury implements the RPC engine SOMA is built on, in the spirit
// of the Mochi/Mercury HPC microservice stack the paper uses. It provides:
//
//   - named RPC handlers registered on an Engine,
//   - two transports behind one address scheme: "tcp://host:port" for real
//     deployments (examples, cmd/somad) and "inproc://name" for simulated
//     experiments and tests,
//   - self-describing addresses that a service publishes so clients can
//     connect (the paper's "RPC addresses publicly known within the
//     workflow"),
//   - concurrent request multiplexing on a single connection, mirroring
//     Mercury's asynchronous operation model.
//
// The wire protocol is deliberately simple: every frame is length-prefixed,
// carries a request id for multiplexing, an 8-byte trace id / 8-byte span id
// pair for cross-process tracing (zero when the caller is untraced), and a
// status byte on responses so handler errors propagate to the caller.
//
// The engine records its own behaviour into the process-wide telemetry
// registry: per-handler server- and client-side latency histograms
// ("mercury.server.latency.<rpc>" / "mercury.client.latency.<rpc>"),
// in-flight gauges, and byte/call counters.
package mercury

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Handler processes one RPC. The input slice is only valid for the duration
// of the call — the transport recycles frame buffers, so handlers must copy
// any bytes they retain. The returned slice may be written to the wire after
// the handler returns (large responses are sent zero-copy), so it must stay
// immutable until the engine is done with it: return either a freshly built
// buffer or a long-lived frame that is never mutated in place (e.g. a frame
// built with an immutable snapshot). Handlers that
// encode into pooled buffers should use RegisterOwned instead, so the buffer
// can be recycled once the frame is written.
type Handler func(ctx context.Context, input []byte) ([]byte, error)

// Response is an RPC reply whose backing buffer the handler wants back.
type Response struct {
	// Payload is the reply bytes; the transport treats it exactly like a
	// Handler's return value.
	Payload []byte
	// Release, when non-nil, is called exactly once after the transport has
	// finished with Payload — on TCP after the response frame is written, on
	// the inproc transport after the caller's copy is taken. Handlers use it
	// to return pooled encode buffers.
	Release func()
}

// OwnedHandler is a Handler flavour whose response travels with a release
// hook (see Response); install with RegisterOwned.
type OwnedHandler func(ctx context.Context, input []byte) (Response, error)

// framePool recycles request/response frame buffers on the TCP read/write
// loops. Buffers above maxPooledFrame are left to the GC so one jumbo frame
// does not pin memory.
var framePool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledFrame = 1 << 16

// zeroCopyMinFrame is the response size above which the TCP transport sends
// the handler's payload with a vector write instead of copying it into a
// pooled frame. Below it the copy is cheaper than the extra iovec setup.
const zeroCopyMinFrame = 2048

func getFrame(n int) *[]byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putFrame(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		framePool.Put(bp)
	}
}

// Errors returned by the engine and endpoints.
var (
	ErrUnknownRPC   = errors.New("mercury: unknown rpc name")
	ErrClosed       = errors.New("mercury: engine closed")
	ErrBadAddress   = errors.New("mercury: bad address")
	ErrFrameTooBig  = errors.New("mercury: frame exceeds limit")
	ErrRemoteFailed = errors.New("mercury: remote handler failed")
)

// MaxFrame bounds a single RPC payload (16 MiB), matching the bulk-transfer
// threshold real Mercury deployments configure.
const MaxFrame = 16 << 20

// Stats counts engine activity; all fields are updated atomically and safe
// to read concurrently. The overhead experiments read these.
type Stats struct {
	CallsServed   atomic.Int64
	CallsIssued   atomic.Int64
	BytesIn       atomic.Int64
	BytesOut      atomic.Int64
	HandlerErrors atomic.Int64
	// ShedExpired counts calls whose propagated deadline had already passed
	// at dispatch time: the handler was skipped and the caller (long gone)
	// got ErrExpired. Load shedding for servers drowning in abandoned work.
	ShedExpired atomic.Int64
}

// Process-wide telemetry. Per-engine attribution stays in Stats; the
// registry aggregates across engines so one somad -metrics page (or the
// soma.telemetry RPC) covers the whole process.
var (
	telCallsServed   = telemetry.Default().Counter("mercury.calls_served")
	telCallsIssued   = telemetry.Default().Counter("mercury.calls_issued")
	telBytesIn       = telemetry.Default().Counter("mercury.bytes_in")
	telBytesOut      = telemetry.Default().Counter("mercury.bytes_out")
	telHandlerErrors = telemetry.Default().Counter("mercury.handler_errors")
	telServerInfl    = telemetry.Default().Gauge("mercury.server.inflight")
	telClientInfl    = telemetry.Default().Gauge("mercury.client.inflight")
	// telPipelineDepth tracks requests in flight on pipelined client
	// connections (registered in a session's pend map, response not yet
	// demuxed) — the wire-side queue depth the PR 6 multiplexing created.
	telPipelineDepth = telemetry.Default().Gauge("mercury.client.pipeline.depth")
)

// Per-RPC latency histograms, cached so the hot path never concatenates a
// metric name. The maps only ever grow by the number of distinct RPC names.
var (
	serverHists sync.Map // rpc name -> *telemetry.Histogram
	clientHists sync.Map
)

func serverHist(name string) *telemetry.Histogram {
	if h, ok := serverHists.Load(name); ok {
		return h.(*telemetry.Histogram)
	}
	h := telemetry.Default().Histogram("mercury.server.latency." + name)
	serverHists.Store(name, h)
	return h
}

func clientHist(name string) *telemetry.Histogram {
	if h, ok := clientHists.Load(name); ok {
		return h.(*telemetry.Histogram)
	}
	h := telemetry.Default().Histogram("mercury.client.latency." + name)
	clientHists.Store(name, h)
	return h
}

// registration is one installed handler: every flavour is stored in the
// owned form, which Register wraps a plain Handler into at install time.
type registration struct {
	h OwnedHandler
	// blocking marks long-poll handlers (RegisterBlocking): they run with a
	// context cancelled at engine Close and stay out of the per-RPC server
	// latency histograms, which would otherwise be dominated by intentional
	// waiting.
	blocking bool
}

// InjectedFault is one fault decision for an in-process call (the inproc
// analogue of a connection-level fault; see internal/faults).
type InjectedFault struct {
	// Delay stalls the call before dispatch.
	Delay time.Duration
	// Drop black-holes the call: it blocks until the caller's context is
	// done and the handler never fires — the inproc equivalent of a request
	// frame lost on the wire.
	Drop bool
}

// Injector intercepts an engine's transports for deterministic fault
// injection (internal/faults implements it). WrapConn wraps every TCP
// connection the engine accepts (client=false) and every connection dialed
// by endpoints the engine owns (client=true); InprocCall is consulted by
// clients calling into the engine over the inproc transport.
type Injector interface {
	WrapConn(conn net.Conn, client bool) net.Conn
	InprocCall(rpc string) InjectedFault
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithInjector enables fault injection on the engine's transports — tests
// and the chaos soak run every workload through it; production engines never
// set one.
func WithInjector(in Injector) Option {
	return func(e *Engine) { e.injector = in }
}

// Engine hosts RPC handlers and manages transports. A process typically has
// one Engine per service or client role.
type Engine struct {
	mu        sync.RWMutex
	handlers  map[string]registration
	listeners []net.Listener
	addrs     []string
	endpoints []*Endpoint // endpoints created via e.Lookup, closed with the engine
	// conns tracks accepted server-side connections so Close can sever them;
	// otherwise shutdown would wait for every client to hang up first.
	conns   map[net.Conn]struct{}
	closed  bool
	closeCh chan struct{} // closed in Close; wakes blocking handlers
	wg      sync.WaitGroup

	// injector, when set, intercepts transports for fault injection.
	injector Injector

	// Stats is exported for observability of the observability system.
	Stats Stats
}

// NewEngine returns an engine with no handlers registered.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		handlers: map[string]registration{},
		conns:    map[net.Conn]struct{}{},
		closeCh:  make(chan struct{}),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Register installs a handler under name, replacing any previous handler.
func (e *Engine) Register(name string, h Handler) {
	e.install(name, registration{h: func(ctx context.Context, input []byte) (Response, error) {
		out, err := h(ctx, input)
		return Response{Payload: out}, err
	}})
}

// RegisterOwned installs an OwnedHandler: its Response.Release hook fires
// once the transport has finished with the payload, so the handler can
// encode into a pooled buffer instead of allocating a fresh response per
// request.
func (e *Engine) RegisterOwned(name string, h OwnedHandler) {
	e.install(name, registration{h: h})
}

// RegisterBlocking installs a handler that is expected to block — long-poll
// receives, streaming waits. Its context is cancelled when the engine closes
// (so shutdown never waits out a poll timeout), and its wall time is excluded
// from the server latency histograms (a long-poll's dwell is intentional
// waiting, not service latency). Counters and in-flight gauges still apply.
func (e *Engine) RegisterBlocking(name string, h OwnedHandler) {
	e.install(name, registration{h: h, blocking: true})
}

func (e *Engine) install(name string, reg registration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[name] = reg
}

func (e *Engine) handler(name string) (registration, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return registration{}, false, ErrClosed
	}
	h, ok := e.handlers[name]
	return h, ok, nil
}

// cancelOnClose derives a context that is cancelled when the engine closes.
// The returned release must be called when the handler returns; it reclaims
// the watcher goroutine.
func (e *Engine) cancelOnClose(ctx context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		select {
		case <-e.closeCh:
			cancel()
		case <-done:
		case <-ctx.Done():
		}
	}()
	return ctx, func() {
		cancel()
		close(done)
	}
}

// dispatch runs the named handler locally; used by both transports. The
// handler's wall time lands in the per-RPC server latency histogram. A call
// whose context deadline has already passed is shed without dispatching —
// the caller gave up, running the handler would be pure waste (the TCP
// transport carries the caller's deadline in the frame header precisely so
// this check sees it).
//
// release is the handler's Response.Release (nil for a plain Handler); the
// transport must call it exactly once when it is done with out.
func (e *Engine) dispatch(ctx context.Context, name string, input []byte) (out []byte, release func(), err error) {
	reg, ok, err := e.handler(name)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (engine closed before dispatching %q)", err, name)
	}
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownRPC, name)
	}
	if !reg.blocking && ctx.Err() != nil {
		e.Stats.ShedExpired.Add(1)
		telShedExpired.Inc()
		return nil, nil, fmt.Errorf("%w (%q shed before dispatch)", ErrExpired, name)
	}
	e.Stats.CallsServed.Add(1)
	e.Stats.BytesIn.Add(int64(len(input)))
	telCallsServed.Inc()
	telBytesIn.Add(int64(len(input)))
	telServerInfl.Inc()
	tc := telemetry.FromContext(ctx)
	var done func()
	if reg.blocking {
		ctx, done = e.cancelOnClose(ctx)
	}
	start := time.Now()
	resp, err := reg.h(ctx, input)
	if reg.blocking {
		done()
	} else {
		serverHist(name).ObserveTrace(time.Since(start), tc.TraceID)
	}
	out, release = resp.Payload, resp.Release
	telServerInfl.Dec()
	if err != nil {
		if release != nil {
			release()
		}
		e.Stats.HandlerErrors.Add(1)
		telHandlerErrors.Inc()
		// Propagate the failure into the trace: handlers that errored
		// before starting (or without marking) their own spans would
		// otherwise leave the server-side trace portion looking healthy,
		// and the tail sampler keeps error traces unconditionally.
		if tc.Valid() && !reg.blocking {
			if sp := telemetry.LeafSpanAt(ctx, "mercury.server.error."+name, start); sp != nil {
				sp.Fail()
				sp.End()
			}
		}
		return nil, nil, err
	}
	e.Stats.BytesOut.Add(int64(len(out)))
	telBytesOut.Add(int64(len(out)))
	return out, release, nil
}

// Addrs returns every address the engine is currently reachable at.
func (e *Engine) Addrs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.addrs...)
}

// Listen makes the engine reachable at addr and returns the concrete
// address clients should use. For "tcp://host:0" the returned address has
// the real port filled in; for "inproc://name" it is the address itself.
func (e *Engine) Listen(addr string) (string, error) {
	scheme, rest, err := splitAddr(addr)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return "", ErrClosed
	}
	e.mu.Unlock()
	switch scheme {
	case "inproc":
		if err := registerInproc(rest, e); err != nil {
			return "", err
		}
		e.mu.Lock()
		e.addrs = append(e.addrs, addr)
		e.mu.Unlock()
		return addr, nil
	case "tcp":
		ln, err := net.Listen("tcp", rest)
		if err != nil {
			return "", err
		}
		concrete := "tcp://" + ln.Addr().String()
		e.mu.Lock()
		e.listeners = append(e.listeners, ln)
		e.addrs = append(e.addrs, concrete)
		e.mu.Unlock()
		e.wg.Add(1)
		go e.acceptLoop(ln)
		return concrete, nil
	default:
		return "", fmt.Errorf("%w: scheme %q", ErrBadAddress, scheme)
	}
}

// Close shuts the engine down: listeners stop, inproc registrations are
// removed, endpoints obtained via Lookup are closed, and in-flight server
// goroutines are awaited. New Calls on the engine's endpoints fail fast
// with ErrClosed instead of racing the connection teardown.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.closeCh) // wake blocking handlers before awaiting them
	lns := e.listeners
	addrs := e.addrs
	eps := e.endpoints
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.listeners = nil
	e.addrs = nil
	e.endpoints = nil
	e.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	// Sever accepted connections: their serve loops are parked in reads that
	// only a close will interrupt, and shutdown must not wait for clients to
	// hang up on their own.
	for _, c := range conns {
		c.Close()
	}
	for _, a := range addrs {
		if scheme, rest, err := splitAddr(a); err == nil && scheme == "inproc" {
			deregisterInproc(rest, e)
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
	e.wg.Wait()
	return nil
}

// isClosed reports whether Close has been called.
func (e *Engine) isClosed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// trackEndpoint records an endpoint created through e.Lookup so Close can
// tear it down; it fails when the engine is already closed.
func (e *Engine) trackEndpoint(ep *Endpoint) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.endpoints = append(e.endpoints, ep)
	return nil
}

func splitAddr(addr string) (scheme, rest string, err error) {
	i := strings.Index(addr, "://")
	if i < 0 {
		return "", "", fmt.Errorf("%w: %q", ErrBadAddress, addr)
	}
	scheme, rest = addr[:i], addr[i+3:]
	if rest == "" {
		return "", "", fmt.Errorf("%w: %q", ErrBadAddress, addr)
	}
	return scheme, rest, nil
}

// ---------------------------------------------------------------------------
// inproc transport: a process-wide registry of engines.

var inprocMu sync.RWMutex
var inprocRegistry = map[string]*Engine{}

func registerInproc(name string, e *Engine) error {
	inprocMu.Lock()
	defer inprocMu.Unlock()
	if _, exists := inprocRegistry[name]; exists {
		return fmt.Errorf("mercury: inproc name %q already in use", name)
	}
	inprocRegistry[name] = e
	return nil
}

func deregisterInproc(name string, e *Engine) {
	inprocMu.Lock()
	defer inprocMu.Unlock()
	if inprocRegistry[name] == e {
		delete(inprocRegistry, name)
	}
}

func lookupInproc(name string) (*Engine, bool) {
	inprocMu.RLock()
	defer inprocMu.RUnlock()
	e, ok := inprocRegistry[name]
	return e, ok
}

// ---------------------------------------------------------------------------
// Endpoint: the client side.

// Endpoint is a client handle to a remote (or in-process) engine. Endpoints
// are safe for concurrent use; calls on one TCP endpoint are multiplexed on
// a single connection (the current session). When the session's connection
// is lost the endpoint redials lazily on the next call, so one endpoint
// survives service restarts and transient network failures — the resilience
// behaviour (timeouts, retries, breaker) is governed by its CallPolicy.
type Endpoint struct {
	// inproc
	local *Engine

	// tcp
	raw    string // host:port to (re)dial
	sessMu sync.Mutex
	sess   *tcpSession
	closed atomic.Bool

	policy *CallPolicy // fixed at lookup, never nil
	brk    breaker

	owner *Engine // for stats attribution and client-side injection; may be nil
}

type rpcResponse struct {
	status  byte
	payload []byte
}

// tcpSession is one live connection with its multiplexing state. A session
// is immutable once dead; the endpoint replaces it wholesale on redial, so
// in-flight calls on the old session fail without racing new ones.
//
// All writes go through the session's frameWriter, so many pipelined
// requests share one syscall. Responses are matched back to callers by the
// request id in the frame header (the pend map), so out-of-order completion
// is fine.
type tcpSession struct {
	conn net.Conn
	w    *frameWriter

	mu      sync.Mutex
	pend    map[uint64]chan rpcResponse
	nextID  uint64
	dead    bool
	deadCh  chan struct{} // closed by fail; unblocks queued senders and stops w
	lastErr error
}

// newTCPSession starts the session's writer; perFrame is the writer's
// one-Write-per-frame mode for injected connections.
func newTCPSession(conn net.Conn, perFrame bool) *tcpSession {
	s := &tcpSession{
		conn:   conn,
		pend:   map[uint64]chan rpcResponse{},
		deadCh: make(chan struct{}),
	}
	s.w = newFrameWriter(conn, perFrame, s.deadCh, s.fail)
	return s
}

// err is the error the session died of (ErrClosed when none was recorded).
func (s *tcpSession) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cmp.Or(s.lastErr, ErrClosed)
}

// enqueueWrite hands one pooled frame to the writer. Ownership transfers:
// the writer recycles the buffer after the wire write (or on teardown). An
// error means the frame provably never entered the queue; it is recycled
// here.
func (s *tcpSession) enqueueWrite(bp *[]byte) error {
	select {
	case <-s.deadCh:
	default:
		select {
		case s.w.queue <- outFrame{frame: bp}:
			return nil
		case <-s.deadCh:
		}
	}
	putFrame(bp)
	return s.err()
}

// register allocates a request id and its response channel; it fails when
// the session has already died.
func (s *tcpSession) register() (uint64, chan rpcResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0, nil, cmp.Or(s.lastErr, ErrClosed)
	}
	s.nextID++
	id := s.nextID
	ch := make(chan rpcResponse, 1)
	s.pend[id] = ch
	telPipelineDepth.Inc()
	return id, ch, nil
}

func (s *tcpSession) unregister(id uint64) {
	s.mu.Lock()
	if _, ok := s.pend[id]; ok {
		delete(s.pend, id)
		telPipelineDepth.Dec()
	}
	s.mu.Unlock()
}

// fail marks the session dead, closes its connection and fails every
// pending call. Idempotent.
func (s *tcpSession) fail(err error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	s.lastErr = err
	close(s.deadCh) // wakes queued senders and stops the writer
	telPipelineDepth.Add(-int64(len(s.pend)))
	for id, ch := range s.pend {
		close(ch)
		delete(s.pend, id)
	}
	s.mu.Unlock()
	s.conn.Close()
}

// Lookup resolves addr into an Endpoint. The optional client engine (may be
// nil) accumulates call statistics.
func (e *Engine) Lookup(addr string) (*Endpoint, error) {
	return lookup(addr, e, nil)
}

// LookupPolicy resolves addr with an explicit call policy (the policy also
// governs the initial dial's connect timeout).
func (e *Engine) LookupPolicy(addr string, p *CallPolicy) (*Endpoint, error) {
	return lookup(addr, e, p)
}

// Lookup resolves addr without a client engine.
func Lookup(addr string) (*Endpoint, error) { return lookup(addr, nil, nil) }

// LookupPolicy resolves addr without a client engine, with an explicit call
// policy.
func LookupPolicy(addr string, p *CallPolicy) (*Endpoint, error) {
	return lookup(addr, nil, p)
}

func lookup(addr string, owner *Engine, policy *CallPolicy) (*Endpoint, error) {
	scheme, rest, err := splitAddr(addr)
	if err != nil {
		return nil, err
	}
	if policy == nil {
		policy = DefaultPolicy()
	}
	var ep *Endpoint
	switch scheme {
	case "inproc":
		target, ok := lookupInproc(rest)
		if !ok {
			return nil, fmt.Errorf("mercury: no inproc engine named %q", rest)
		}
		ep = &Endpoint{local: target, owner: owner, policy: policy}
	case "tcp":
		ep = &Endpoint{raw: rest, owner: owner, policy: policy}
		// Dial eagerly so an unreachable service fails at Lookup, not at the
		// first call — services publish their RPC addresses, and a bad one
		// should be reported where it was resolved.
		if _, err := ep.session(context.Background()); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: scheme %q", ErrBadAddress, scheme)
	}
	if owner != nil {
		if err := owner.trackEndpoint(ep); err != nil {
			ep.Close()
			return nil, fmt.Errorf("%w (lookup %q on a closed engine)", err, addr)
		}
	}
	return ep, nil
}

// BreakerState reports the endpoint's circuit-breaker state: "disabled",
// "closed", "open" or "half-open".
func (ep *Endpoint) BreakerState() string { return ep.brk.stateName(ep.policy) }

// session returns the current live session, dialing a new one (bounded by
// the policy's connect timeout and ctx) when none exists. The dial happens
// under sessMu so concurrent calls share one redial instead of racing.
func (ep *Endpoint) session(ctx context.Context) (*tcpSession, error) {
	ep.sessMu.Lock()
	defer ep.sessMu.Unlock()
	if ep.closed.Load() {
		return nil, ErrClosed
	}
	if s := ep.sess; s != nil {
		s.mu.Lock()
		dead := s.dead
		s.mu.Unlock()
		if !dead {
			return s, nil
		}
		ep.sess = nil
	}
	d := net.Dialer{Timeout: ep.policy.connectTimeout()}
	conn, err := d.DialContext(ctx, "tcp", ep.raw)
	if err != nil {
		return nil, err
	}
	perFrame := ep.owner != nil && ep.owner.injector != nil
	if perFrame {
		conn = ep.owner.injector.WrapConn(conn, true)
	}
	s := newTCPSession(conn, perFrame)
	ep.sess = s
	go ep.readLoop(s)
	return s, nil
}

// dropSession discards s as the endpoint's current session (if it still is)
// and fails it, severing the connection.
func (ep *Endpoint) dropSession(s *tcpSession, err error) {
	ep.sessMu.Lock()
	if ep.sess == s {
		ep.sess = nil
	}
	ep.sessMu.Unlock()
	s.fail(err)
}

// Call invokes the named RPC and waits for the response. ctx cancellation
// abandons the wait (the response, if any, is discarded). When ctx carries a
// telemetry trace context, its trace/span ids travel in the frame header so
// the server-side handler span becomes a child of the caller's span; the
// attempt's deadline travels alongside them so the server can shed work
// whose caller already gave up. After the owning engine's Close, Call fails
// fast with ErrClosed.
//
// Resilience is governed by the endpoint's CallPolicy: a default call
// timeout when ctx carries no deadline, bounded per-attempt budgets,
// retries with backoff for idempotent RPCs (connect-stage failures retry
// for every RPC — the request provably never left), and a circuit breaker
// failing fast while the endpoint is down.
func (ep *Endpoint) Call(ctx context.Context, name string, input []byte) ([]byte, error) {
	if ep.owner != nil {
		if ep.owner.isClosed() {
			return nil, fmt.Errorf("%w (call %q rejected: owning engine closed)", ErrClosed, name)
		}
		ep.owner.Stats.CallsIssued.Add(1)
	}
	telCallsIssued.Inc()
	telClientInfl.Inc()
	start := time.Now()
	defer func() {
		clientHist(name).ObserveSince(start)
		telClientInfl.Dec()
	}()
	if t := ep.policy.CallTimeout; t > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
	}
	if ep.local != nil {
		if inj := ep.local.injector; inj != nil {
			if err := applyInprocFault(ctx, inj.InprocCall(name)); err != nil {
				return nil, err
			}
		}
		out, release, err := ep.local.dispatch(ctx, name, input)
		if err != nil {
			// Mirror the TCP path: handler failures surface as
			// ErrRemoteFailed; infrastructure errors keep their identity.
			if errors.Is(err, ErrUnknownRPC) || errors.Is(err, ErrClosed) || errors.Is(err, ErrExpired) {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %v", ErrRemoteFailed, err)
		}
		if release != nil {
			// The handler wants its buffer back; hand the caller a copy —
			// the same ownership transfer the TCP transport's read performs.
			cp := make([]byte, len(out))
			copy(cp, out)
			release()
			out = cp
		}
		return out, nil
	}
	return ep.callTCP(ctx, name, input)
}

// applyInprocFault stalls or black-holes an in-process call per the
// engine's injector decision.
func applyInprocFault(ctx context.Context, f InjectedFault) error {
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	if f.Drop {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// Close releases the endpoint; subsequent calls fail with ErrClosed (no
// redial).
func (ep *Endpoint) Close() error {
	ep.closed.Store(true)
	ep.sessMu.Lock()
	s := ep.sess
	ep.sess = nil
	ep.sessMu.Unlock()
	if s != nil {
		s.fail(ErrClosed)
	}
	return nil
}

// ---------------------------------------------------------------------------
// TCP framing.
//
//	request : u32 len | u64 id | u64 traceID | u64 spanID | u64 deadline | u16 nameLen | name | payload
//	response: u32 len | u64 id | u8 status | payload
//
// status: 0 ok, 1 handler error (payload = message), 2 unknown rpc,
// 3 expired (the deadline had passed; the handler was never dispatched).
//
// traceID/spanID are the caller's telemetry trace context (zero when the
// caller is untraced); the server rebuilds it into the handler's context so
// server-side spans join the caller's trace. deadline is the attempt's
// context deadline in Unix nanoseconds (0 = none): the server installs it
// on the handler's context and sheds the call outright when it has already
// passed — work whose caller gave up is answered with status 3 instead of
// being executed. Deadlines assume the clocks on both ends agree to within
// the RPC timeout, which holds for the single-machine and
// NTP-synchronized-cluster deployments this repo targets.

const (
	statusOK      = 0
	statusErr     = 1
	statusUnknown = 2
	statusExpired = 3
)

// reqHeaderLen is the request byte count after the u32 length prefix, before
// the name: id (8) + traceID (8) + spanID (8) + deadline (8) + nameLen (2).
// respHeaderLen is the response's, before the payload: id (8) + status (1).
const (
	reqHeaderLen  = 34
	respHeaderLen = 9
)

// errCorruptFrame fails a connection whose peer sent a frame no sender of
// this protocol writes: a length out of range or a name past its frame's
// end. It is a transport fault (IsTransient), unlike ErrFrameTooBig, which
// refuses the caller's own oversized request before anything is sent.
var errCorruptFrame = errors.New("mercury: corrupt incoming frame")

// deadlineNanos extracts ctx's deadline as Unix nanoseconds for the frame
// header (0 when ctx has none).
func deadlineNanos(ctx context.Context) int64 {
	if d, ok := ctx.Deadline(); ok {
		return d.UnixNano()
	}
	return 0
}

// appendRequestHeader appends the framed request header and name to dst.
// total is the frame length after the u32 prefix.
func appendRequestHeader(dst []byte, total uint32, id uint64, tc telemetry.TraceContext, deadline int64, name string) []byte {
	var hdr [4 + reqHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], total)
	binary.LittleEndian.PutUint64(hdr[4:12], id)
	binary.LittleEndian.PutUint64(hdr[12:20], tc.TraceID)
	binary.LittleEndian.PutUint64(hdr[20:28], tc.SpanID)
	binary.LittleEndian.PutUint64(hdr[28:36], uint64(deadline))
	binary.LittleEndian.PutUint16(hdr[36:38], uint16(len(name)))
	dst = append(dst, hdr[:]...)
	return append(dst, name...)
}

// callTCP drives the retry/breaker state machine around attemptTCP.
func (ep *Endpoint) callTCP(ctx context.Context, name string, input []byte) ([]byte, error) {
	p := ep.policy
	total := reqHeaderLen + len(name) + len(input)
	if total > MaxFrame {
		return nil, ErrFrameTooBig
	}
	idem := p.idempotent(name)
	for attempt := 0; ; attempt++ {
		if err := ep.brk.allow(p); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out, sent, err := ep.attemptTCP(ctx, p, name, input, total)
		switch {
		case err == nil:
			ep.brk.success()
			return out, nil
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// The caller's context ended: neither a server verdict nor
			// evidence the endpoint is down — no breaker movement, no retry.
			return nil, err
		case errors.Is(err, ErrRemoteFailed) || errors.Is(err, ErrUnknownRPC) || errors.Is(err, ErrExpired):
			// The server responded: the transport is healthy.
			ep.brk.success()
			return nil, err
		}
		// Transport-level failure (dial error, severed connection, attempt
		// timeout): count it and retry when the policy allows. A request
		// that may have reached the server is only re-sent for idempotent
		// RPCs.
		ep.brk.failure(p)
		if ctx.Err() != nil {
			return nil, err
		}
		if attempt >= p.MaxRetries || (sent && !idem) {
			return nil, err
		}
		telRetries.Inc()
		if serr := p.Backoff.Sleep(ctx, attempt); serr != nil {
			return nil, err
		}
	}
}

// attemptTCP performs one send/receive round. sent reports whether the
// request reached the write stage (and so may have fired server-side).
func (ep *Endpoint) attemptTCP(ctx context.Context, p *CallPolicy, name string, input []byte, total int) (out []byte, sent bool, err error) {
	s, err := ep.session(ctx)
	if err != nil {
		return nil, false, err
	}
	actx := ctx
	if p.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		defer cancel()
	}
	id, respCh, err := s.register()
	if err != nil {
		// The session died between lookup and registration; provably unsent.
		ep.dropSession(s, err)
		return nil, false, err
	}
	defer s.unregister(id)

	bp := getFrame(0)
	frame := appendRequestHeader((*bp)[:0], uint32(total), id, telemetry.FromContext(ctx), deadlineNanos(actx), name)
	frame = append(frame, input...)
	*bp = frame
	if werr := s.enqueueWrite(bp); werr != nil {
		// The frame provably never entered the write queue: unsent, so even
		// non-idempotent RPCs may retry.
		ep.dropSession(s, werr)
		return nil, false, werr
	}
	sent = true

	select {
	case <-actx.Done():
		if ctx.Err() != nil {
			return nil, true, ctx.Err()
		}
		// The attempt budget expired while the call as a whole is still
		// live: the frame (or its response) is black-holed somewhere. Drop
		// the connection — a fresh attempt gets a fresh one.
		err := fmt.Errorf("%w (%q after %s)", ErrAttemptTimeout, name, p.AttemptTimeout)
		ep.dropSession(s, err)
		return nil, true, err
	case resp, ok := <-respCh:
		if !ok {
			// Session failed underneath us (connection severed).
			return nil, true, s.err()
		}
		switch resp.status {
		case statusOK:
			return resp.payload, true, nil
		case statusUnknown:
			return nil, true, fmt.Errorf("%w: %q", ErrUnknownRPC, name)
		case statusExpired:
			return nil, true, fmt.Errorf("%w (%q shed by server)", ErrExpired, name)
		default:
			return nil, true, fmt.Errorf("%w: %s", ErrRemoteFailed, resp.payload)
		}
	}
}

// readLoop pumps responses for one session; when the connection dies or
// carries a corrupt frame it fails the session (and every call pending on
// it) and detaches it from the endpoint so the next call redials.
func (ep *Endpoint) readLoop(s *tcpSession) {
	// Each body is the caller's: its payload is returned from Call as is.
	err := readFrames(s.conn, respHeaderLen, func(n int) []byte { return make([]byte, n) }, func(body []byte) error {
		id := binary.LittleEndian.Uint64(body[0:8])
		// A response leaves the pending table as it is taken, under the lock:
		// fail closes only channels still in the table, so it can never
		// close one this loop is sending on (the buffered send never blocks).
		s.mu.Lock()
		ch := s.pend[id]
		if ch != nil {
			delete(s.pend, id)
			telPipelineDepth.Dec()
		}
		s.mu.Unlock()
		if ch != nil {
			ch <- rpcResponse{status: body[8], payload: body[respHeaderLen:]}
		}
		return nil
	})
	ep.dropSession(s, err)
}

func (e *Engine) acceptLoop(ln net.Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go e.serveConn(conn)
	}
}

func (e *Engine) serveConn(conn net.Conn) {
	defer e.wg.Done()
	if e.injector != nil {
		conn = e.injector.WrapConn(conn, false)
	}
	defer conn.Close()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.conns[conn] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()
	// A write error closes the connection, which ends the read loop too.
	w := newFrameWriter(conn, e.injector != nil, nil, func(error) { conn.Close() })
	// Defer order (LIFO): wait for handlers to finish enqueueing, THEN close
	// the queue — the writer drains every queued response before exiting.
	defer func() {
		close(w.queue)
		<-w.done
	}()
	var handlerWG sync.WaitGroup
	defer handlerWG.Wait()
	var bodyBP *[]byte // the pooled buffer of the body being read
	// Whatever ends the stream (hang-up, read error, corrupt frame) ends
	// the connection; no caller waits on its error.
	_ = readFrames(conn, reqHeaderLen, func(n int) []byte {
		bodyBP = getFrame(n)
		return *bodyBP
	}, func(body []byte) error {
		id := binary.LittleEndian.Uint64(body[0:8])
		tc := telemetry.TraceContext{
			TraceID: binary.LittleEndian.Uint64(body[8:16]),
			SpanID:  binary.LittleEndian.Uint64(body[16:24]),
		}
		deadline := int64(binary.LittleEndian.Uint64(body[24:32]))
		nameLen := int(binary.LittleEndian.Uint16(body[32:34]))
		if reqHeaderLen+nameLen > len(body) {
			putFrame(bodyBP)
			return errCorruptFrame
		}
		name := string(body[reqHeaderLen : reqHeaderLen+nameLen])
		payload := body[reqHeaderLen+nameLen:]

		// Each request runs in its own goroutine so a slow handler does not
		// stall the connection — Mercury's progress model. The request body
		// goes back to the frame pool once the response no longer needs it
		// (handlers may not retain their input, see Handler).
		bp := bodyBP
		handlerWG.Add(1)
		go func() {
			defer handlerWG.Done()
			ctx := context.Background()
			if tc.Valid() {
				// Remote marking: the first span a handler starts under this
				// context becomes the process-local root that closes this
				// process's portion of the cross-process trace (see
				// telemetry.TraceStore).
				ctx = telemetry.ContextWithRemote(ctx, tc)
			}
			// Install the caller's propagated deadline; dispatch sheds the
			// call (statusExpired) when it has already passed.
			if deadline != 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, time.Unix(0, deadline))
				defer cancel()
			}
			status := byte(statusOK)
			out, release, err := e.dispatch(ctx, name, payload)
			// bp is NOT recycled yet: a handler may legally return (a slice
			// of) its input, so the request buffer must stay alive until the
			// response bytes have been copied or written.
			if err != nil {
				switch {
				case errors.Is(err, ErrUnknownRPC):
					status = statusUnknown
					out = nil
				case errors.Is(err, ErrExpired):
					status = statusExpired
					out = nil
				default:
					status = statusErr
					out = []byte(err.Error())
				}
			}
			hb := getFrame(0)
			*hb = binary.LittleEndian.AppendUint32((*hb)[:0], uint32(respHeaderLen+len(out)))
			*hb = binary.LittleEndian.AppendUint64(*hb, id)
			*hb = append(*hb, status)
			f := outFrame{frame: hb, release: release}
			if len(out) >= zeroCopyMinFrame {
				// Large responses go out as a header+payload pair: the
				// handler-owned bytes (typically a pooled query answer)
				// reach the socket without being copied into a pooled frame
				// first, and are released once written.
				f.payload = out
				f.release = func() {
					putFrame(bp) // out may alias the request body
					if release != nil {
						release()
					}
				}
			} else {
				*hb = append(*hb, out...)
				putFrame(bp) // response copied; the request body is free
			}
			w.queue <- f // blocks when the writer is saturated: backpressure
		}()
		return nil
	})
}

// readFrames is the length-prefix frame reader of both ends: it reads frames
// from conn until the stream ends, each body into the buffer body(n) returns
// for its length, and hands each to handle. A length outside [minLen,
// MaxFrame] can only come from a corrupt or hostile stream and ends it with
// errCorruptFrame. It returns the error that ended the stream, handle's
// included.
func readFrames(conn net.Conn, minLen uint32, body func(n int) []byte, handle func([]byte) error) error {
	br := bufio.NewReader(conn)
	var lenBuf [4]byte // outside the loop: io.ReadFull moves it to the heap
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < minLen || n > MaxFrame {
			return fmt.Errorf("%w (length %d)", errCorruptFrame, n)
		}
		b := body(int(n))
		if _, err := io.ReadFull(br, b); err != nil {
			return err
		}
		if err := handle(b); err != nil {
			return err
		}
	}
}

// sessionWriteQueue bounds the frames queued to a connection's writer; a
// full queue blocks the enqueuing caller or handler, which is the natural
// backpressure for pipelined senders.
const sessionWriteQueue = 256

// maxGatherFrames caps how many queued frames one vector write gathers.
const maxGatherFrames = 64

// outFrame is one frame queued to a frameWriter. frame is a pooled buffer
// holding the whole frame or, for a zero-copy response, its header; payload,
// when non-nil, is written right after *frame without being copied. release,
// when non-nil, returns the payload's owner its buffer.
type outFrame struct {
	frame   *[]byte
	payload []byte
	release func()
}

// recycle returns the frame to the pool and fires release: the writer's one
// exit for a frame, written or discarded.
func (f outFrame) recycle() {
	putFrame(f.frame)
	if f.release != nil {
		f.release()
	}
}

// frameWriter serializes one connection's writes, on both ends: senders
// enqueue frames and its goroutine drains the queue, gathering what is queued
// into one vector write, so a burst of pipelined requests or responses shares
// one syscall. On injected connections (perFrame) it makes one Write per
// frame instead, header and payload joined: fault injectors model "one Write
// = one frame", and a gathered write would bundle many frames into one fault
// decision. The first write error goes to fail; later frames are discarded.
//
// The writer stops when stop closes (a client session's failure) or queue
// closes (the server, once no handler can send). Every frame it takes from
// the queue is recycled exactly once; a client frame that races a stop into
// the queue after the final drain is left to the collector (requests carry
// no release).
type frameWriter struct {
	conn     net.Conn
	perFrame bool
	queue    chan outFrame
	stop     <-chan struct{} // nil on the server
	fail     func(error)
	done     chan struct{} // closed when the goroutine exits

	pend []outFrame
	// vec is the gathered write, a field so that WriteTo, which takes its
	// receiver's address, moves no slice header to the heap per write.
	// WriteTo consumes it, so each round rebuilds it over backing.
	vec     net.Buffers
	backing [][]byte
}

func newFrameWriter(conn net.Conn, perFrame bool, stop <-chan struct{}, fail func(error)) *frameWriter {
	w := &frameWriter{
		conn:     conn,
		perFrame: perFrame,
		queue:    make(chan outFrame, sessionWriteQueue),
		stop:     stop,
		fail:     fail,
		done:     make(chan struct{}),
		pend:     make([]outFrame, 0, maxGatherFrames),
		backing:  make([][]byte, 0, 2*maxGatherFrames),
	}
	go w.loop()
	return w
}

func (w *frameWriter) loop() {
	defer close(w.done)
	failed := false
	for {
		select {
		case f, ok := <-w.queue:
			if !ok {
				return
			}
			w.pend = append(w.pend[:0], f)
		case <-w.stop:
			for {
				select {
				case f := <-w.queue:
					f.recycle()
				default:
					return
				}
			}
		}
	gather:
		for len(w.pend) < maxGatherFrames {
			select {
			case f, ok := <-w.queue:
				if !ok {
					break gather
				}
				w.pend = append(w.pend, f)
			default:
				break gather
			}
		}
		if !failed {
			if err := w.write(); err != nil {
				failed = true
				w.fail(err)
			}
		}
		for i := range w.pend {
			w.pend[i].recycle()
			w.pend[i] = outFrame{} // pin no payload until the next round
		}
	}
}

// write puts the gathered frames on the wire.
func (w *frameWriter) write() error {
	if w.perFrame {
		for _, f := range w.pend {
			if f.payload != nil {
				// Joined in the header's pooled frame: one Write, one
				// fault decision.
				*f.frame = append(*f.frame, f.payload...)
			}
			if _, err := w.conn.Write(*f.frame); err != nil {
				return err
			}
		}
		return nil
	}
	w.vec = w.backing[:0]
	for _, f := range w.pend {
		w.vec = append(w.vec, *f.frame)
		if f.payload != nil {
			w.vec = append(w.vec, f.payload)
		}
	}
	if len(w.vec) == 1 {
		_, err := w.conn.Write(w.vec[0])
		return err
	}
	_, err := w.vec.WriteTo(w.conn)
	return err
}
