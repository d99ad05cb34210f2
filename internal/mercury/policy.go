// Client-side resilience: per-endpoint call policies (timeouts, bounded
// retries with exponential backoff + full jitter, deadline propagation) and
// a per-endpoint circuit breaker with half-open probing.
//
// The paper's SOMA service lives alongside long-running workflows where
// transient failures — dropped connections, slow nodes, overloaded service
// instances — are the norm, and middleware resilience (not peak throughput)
// dominates usable performance on leadership platforms. The policy layer
// makes every degraded mode explicit and bounded:
//
//   - ConnectTimeout bounds the dial (no bare net.Dial hanging on a dead
//     node's SYN backlog);
//   - CallTimeout/AttemptTimeout bound the wait, and the attempt's deadline
//     travels in the frame header so the server can shed work whose caller
//     has already given up (see ErrExpired and the wire format in
//     mercury.go);
//   - MaxRetries + Backoff redeliver idempotent RPCs through connection
//     loss, with full jitter so a fleet of recovering clients does not
//     reconverge in lockstep;
//   - FailureThreshold/OpenFor trip a circuit breaker that fails fast while
//     an endpoint is down and re-probes it with exactly one call at a time.
//
// All breaker transitions and retry/fast-fail decisions are surfaced
// through the process-wide telemetry registry.
package mercury

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Policy-layer errors.
var (
	// ErrBreakerOpen is returned without touching the network while an
	// endpoint's circuit breaker is open (or a half-open probe is already in
	// flight).
	ErrBreakerOpen = errors.New("mercury: circuit breaker open")
	// ErrExpired reports that a call's deadline had already passed when the
	// server (or local dispatcher) would have run it; the work was shed, the
	// handler never fired.
	ErrExpired = errors.New("mercury: call deadline already expired")
	// ErrAttemptTimeout reports that one call attempt exceeded the policy's
	// AttemptTimeout while the overall call context was still live; the
	// connection is dropped (a black-holed peer is indistinguishable from a
	// dead one) and the call is retried when the policy allows.
	ErrAttemptTimeout = errors.New("mercury: call attempt timed out")
)

// DefaultConnectTimeout bounds dials when the policy does not set one. A
// bare connect to a dead node can otherwise hang for minutes in the kernel's
// retransmission schedule.
const DefaultConnectTimeout = 10 * time.Second

// Policy-layer telemetry (process-wide; per-endpoint state is readable via
// Endpoint.BreakerState).
var (
	telRetries       = telemetry.Default().Counter("mercury.client.retries")
	telBreakerOpened = telemetry.Default().Counter("mercury.breaker.opened")
	telBreakerFast   = telemetry.Default().Counter("mercury.breaker.fastfail")
	telBreakerProbes = telemetry.Default().Counter("mercury.breaker.halfopen_probes")
	telBreakerOpen   = telemetry.Default().Gauge("mercury.breaker.open")
	telShedExpired   = telemetry.Default().Counter("mercury.server.shed_expired")
)

// Backoff is an exponential backoff schedule with full jitter (AWS style):
// the attempt'th delay is drawn uniformly from [0, min(Max, Base<<attempt)].
// Full jitter decorrelates a fleet of clients recovering from the same
// outage — deterministic doubling would have every one of them redial the
// healing service at the same instants.
//
// The zero value is usable and means Base=100ms, Max=5s.
type Backoff struct {
	Base time.Duration
	Max  time.Duration
}

func (b Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 100 * time.Millisecond
	}
	return b.Base
}

func (b Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 5 * time.Second
	}
	return b.Max
}

// Cap returns the un-jittered ceiling for the attempt'th delay (attempt
// counts from 0).
func (b Backoff) Cap(attempt int) time.Duration {
	d := b.base()
	max := b.max()
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// Delay returns the attempt'th backoff delay: a uniform draw from
// [0, Cap(attempt)].
func (b Backoff) Delay(attempt int) time.Duration {
	c := b.Cap(attempt)
	if c <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(c) + 1))
}

// Sleep blocks for Delay(attempt) or until ctx is done, returning ctx's
// error in the latter case.
func (b Backoff) Sleep(ctx context.Context, attempt int) error {
	d := b.Delay(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// CallPolicy configures an Endpoint's resilience behaviour. The zero value
// (and DefaultPolicy) preserves the engine's historical semantics — no
// default call deadline, no retries, no breaker — except that dials are
// always bounded by ConnectTimeout (DefaultConnectTimeout when unset).
//
// Retries only re-send a request after it may have reached the server when
// Idempotent reports the RPC safe to re-fire; connect-stage failures (the
// request was provably never written) are retried for every RPC.
type CallPolicy struct {
	// ConnectTimeout bounds each dial (0 = DefaultConnectTimeout).
	ConnectTimeout time.Duration
	// CallTimeout is the overall deadline applied when the caller's context
	// has none (0 = unbounded, the historical behaviour).
	CallTimeout time.Duration
	// AttemptTimeout bounds each individual attempt; when it fires while the
	// overall context is still live the connection is dropped and the call
	// becomes retryable (idempotent RPCs only). 0 = each attempt may use the
	// whole call budget.
	AttemptTimeout time.Duration
	// MaxRetries is the number of re-attempts after the first failure.
	MaxRetries int
	// Backoff schedules the wait between attempts.
	Backoff Backoff
	// Idempotent reports whether an RPC may be re-sent after the original
	// request possibly reached the server. nil = nothing is.
	Idempotent func(rpc string) bool
	// FailureThreshold consecutive transport failures open the breaker;
	// OpenFor is how long it fails fast before admitting one half-open
	// probe. The breaker is disabled unless both are positive.
	FailureThreshold int
	OpenFor          time.Duration
}

// DefaultPolicy returns the policy endpoints start with: bounded connects,
// everything else off.
func DefaultPolicy() *CallPolicy {
	return &CallPolicy{ConnectTimeout: DefaultConnectTimeout}
}

func (p *CallPolicy) connectTimeout() time.Duration {
	if p == nil || p.ConnectTimeout <= 0 {
		return DefaultConnectTimeout
	}
	return p.ConnectTimeout
}

func (p *CallPolicy) idempotent(rpc string) bool {
	return p != nil && p.Idempotent != nil && p.Idempotent(rpc)
}

func (p *CallPolicy) breakerEnabled() bool {
	return p != nil && p.FailureThreshold > 0 && p.OpenFor > 0
}

// IdempotentSet is a convenience constructor for CallPolicy.Idempotent from
// a fixed list of RPC names.
func IdempotentSet(names ...string) func(string) bool {
	set := make(map[string]struct{}, len(names))
	for _, n := range names {
		set[n] = struct{}{}
	}
	return func(rpc string) bool {
		_, ok := set[rpc]
		return ok
	}
}

// IsTransient reports whether a Call error is a transport-level failure
// that may heal on its own — a dial failure, severed connection, corrupt
// incoming frame, attempt timeout, open breaker, or deadline blown waiting on
// a black-holed peer — as opposed to a definitive result (handler error,
// unknown RPC, the caller's own oversized request) or the caller's own
// cancellation. Degraded-mode
// layers (e.g. the core client's publish spill) buffer on transient errors
// and drop on definitive ones.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrRemoteFailed),
		errors.Is(err, ErrUnknownRPC),
		errors.Is(err, ErrFrameTooBig),
		errors.Is(err, ErrExpired),
		errors.Is(err, context.Canceled):
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Circuit breaker. One per endpoint; configuration lives in the (swappable)
// CallPolicy, so the state machine only holds state.

const (
	bkClosed = iota
	bkOpen
	bkHalfOpen
)

type breaker struct {
	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// allow admits or fast-fails a call under policy p. After OpenFor, the
// first caller transitions the breaker to half-open and becomes its single
// probe; concurrent callers keep failing fast until the probe resolves.
func (b *breaker) allow(p *CallPolicy) error {
	if !p.breakerEnabled() {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkClosed:
		return nil
	case bkOpen:
		if wait := p.OpenFor - time.Since(b.openedAt); wait > 0 {
			telBreakerFast.Inc()
			return fmt.Errorf("%w (half-open probe in %s)", ErrBreakerOpen, wait.Round(time.Millisecond))
		}
		b.state = bkHalfOpen
		b.probing = true
		telBreakerProbes.Inc()
		return nil
	default: // bkHalfOpen
		if b.probing {
			telBreakerFast.Inc()
			return fmt.Errorf("%w (half-open probe in flight)", ErrBreakerOpen)
		}
		b.probing = true
		telBreakerProbes.Inc()
		return nil
	}
}

// success records a server response (healthy transport): the breaker closes.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != bkClosed {
		telBreakerOpen.Dec()
	}
	b.state = bkClosed
	b.fails = 0
	b.probing = false
}

// failure records a transport-level failure, tripping the breaker at the
// policy's threshold (immediately when a half-open probe fails).
func (b *breaker) failure(p *CallPolicy) {
	if !p.breakerEnabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	switch b.state {
	case bkClosed:
		if b.fails >= p.FailureThreshold {
			b.state = bkOpen
			b.openedAt = time.Now()
			telBreakerOpened.Inc()
			telBreakerOpen.Inc()
		}
	case bkHalfOpen:
		// The probe failed: re-open without touching the open gauge
		// (half-open still counted as open).
		b.state = bkOpen
		b.openedAt = time.Now()
		b.probing = false
		telBreakerOpened.Inc()
	case bkOpen:
		// A straggler attempt admitted before the trip; stay open.
	}
}

func (b *breaker) stateName(p *CallPolicy) string {
	if !p.breakerEnabled() {
		return "disabled"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkOpen:
		return "open"
	case bkHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
