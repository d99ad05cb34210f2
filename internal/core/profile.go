package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// soma.profile — on-demand, bounded profiling of a live service. Instead of
// leaving net/http/pprof open on every somad, profiles are captured through
// the same authenticated RPC plane as everything else, with hard caps so a
// stray request cannot turn a production aggregator into a benchmark:
//
//   - one capture at a time (Service.profileBusy; concurrent requests fail
//     fast instead of queueing behind a 30s CPU profile),
//   - CPU capture duration clamped to [10ms, maxProfileDuration] and to the
//     caller's propagated frame-header deadline,
//   - result size capped well under mercury.MaxFrame.
//
// The request and the answer are both a Profile: the request names Kind and,
// for "cpu", the Duration to sample; the answer adds the Data. The profile
// bytes travel in a string leaf — conduit strings are length-prefixed and
// binary-safe, so the gzipped protobuf rides unmodified.
const RPCProfile = "soma.profile"

const (
	// maxProfileDuration caps a CPU capture regardless of what the request
	// asks for.
	maxProfileDuration = 30 * time.Second
	minProfileDuration = 10 * time.Millisecond
	// maxProfileBytes rejects absurdly large profiles instead of shipping
	// them; ordinary captures are a few hundred KiB gzipped.
	maxProfileBytes = 8 << 20
	// profileDeadlineMargin is reserved out of the caller's deadline for
	// encoding and writing the response after the capture finishes.
	profileDeadlineMargin = 250 * time.Millisecond
)

// ErrProfileBusy reports that another profile capture is already running.
var ErrProfileBusy = errors.New("soma: a profile capture is already in progress")

// Profile is a captured pprof profile as returned by Client.Profile.
type Profile struct {
	Kind     string        `conduit:"kind"`
	Duration time.Duration `conduit:"duration_ns"` // actual capture window (CPU only)
	Data     []byte        `conduit:"data"`        // pprof protobuf, gzip-compressed
}

// handleProfile serves soma.profile. Its rpcTable row is blocking: a CPU
// capture sits in the handler for its whole sampling window, which would
// stall a non-blocking dispatch loop. Blocking dispatch skips the
// engine's expired-deadline shed, so the handler re-checks ctx.Err() itself.
func (s *Service) handleProfile(ctx context.Context, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var req Profile
	if err := unmarshalFrame(payload, &req); err != nil {
		return nil, err
	}
	kind, dur := req.Kind, 2*time.Second
	if req.Duration > 0 {
		dur = req.Duration
	}

	if !s.profileBusy.CompareAndSwap(false, true) {
		return nil, ErrProfileBusy
	}
	defer s.profileBusy.Store(false)

	var buf bytes.Buffer
	actual := time.Duration(0)
	switch kind {
	case "cpu":
		if dur > maxProfileDuration {
			dur = maxProfileDuration
		}
		if dl, ok := ctx.Deadline(); ok {
			if budget := time.Until(dl) - profileDeadlineMargin; budget < dur {
				dur = budget
			}
		}
		if dur < minProfileDuration {
			return nil, fmt.Errorf("soma: profile deadline too tight (have %v, need ≥%v)", dur, minProfileDuration)
		}
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		start := time.Now()
		select {
		case <-time.After(dur):
		case <-ctx.Done():
		}
		pprof.StopCPUProfile()
		actual = time.Since(start)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	case "heap", "allocs", "goroutine", "block", "mutex", "threadcreate":
		if kind == "heap" {
			// Fold in anything sitting in per-P caches so the numbers match
			// what an operator expects from a point-in-time heap profile.
			runtime.GC()
		}
		p := pprof.Lookup(kind)
		if p == nil {
			return nil, fmt.Errorf("soma: unknown profile kind %q", kind)
		}
		if err := p.WriteTo(&buf, 0); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("soma: unknown profile kind %q (want cpu, heap, allocs, goroutine, block, mutex or threadcreate)", kind)
	}
	if buf.Len() > maxProfileBytes {
		return nil, fmt.Errorf("soma: profile is %d bytes, exceeds the %d cap", buf.Len(), maxProfileBytes)
	}

	return conduit.Marshal(Profile{Kind: kind, Duration: actual, Data: buf.Bytes()}).EncodeBinary(), nil
}

// Profile captures a profile from the service. For kind "cpu" the service
// samples for roughly dur (clamped server-side); snapshot kinds ("heap",
// "goroutine", "allocs", "block", "mutex", "threadcreate") ignore dur. The
// returned bytes are a standard gzipped pprof protobuf, ready for `go tool
// pprof`.
//
// soma.profile must never be in a CallPolicy's idempotent set (see
// IdempotentRPCs): a retry after an ambiguous failure would double-start a
// capture or trip the busy gate.
func (c *Client) Profile(kind string, dur time.Duration) (Profile, error) {
	// Give the wire call room for the full capture window plus transfer.
	timeout := dur + 10*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var p Profile
	if err := c.call(ctx, RPCProfile, Profile{Kind: kind, Duration: dur}, &p); err != nil {
		return Profile{}, err
	}
	if len(p.Data) == 0 {
		return Profile{}, errors.New("soma: service returned an empty profile")
	}
	return p, nil
}
