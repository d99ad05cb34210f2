package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// soma.trace.* — the query side of the trace pipeline. The telemetry
// package's TraceStore assembles completed spans into tail-sampled traces;
// these RPCs expose them through the control-plane codec, like
// soma.telemetry, so somactl and somatop can answer "why was this publish
// slow?" against a live service. soma.trace.list answers a
// []telemetry.TraceSummary, soma.trace.get a telemetry.Trace — with a zero
// TraceID when the trace was never kept or has been evicted.
const (
	RPCTraceList = "soma.trace.list"
	RPCTraceGet  = "soma.trace.get"
)

// traceReq is the request of both soma.trace.* RPCs: soma.trace.get reads
// Trace; soma.trace.list reads Limit (0 = traceListLimit) and Sort ("dur" =
// slowest root first, else most recently kept first).
type traceReq struct {
	Trace uint64 `conduit:"trace"`
	Limit int    `conduit:"limit"`
	Sort  string `conduit:"sort"`
}

// ErrTraceNotFound reports that a queried trace id was never kept by the
// service's tail sampler, or has since been evicted from the bounded store.
var ErrTraceNotFound = errors.New("soma: trace not found (not kept by the sampler, or evicted)")

// traceListLimit bounds how many summaries one soma.trace.list response
// carries when the request does not say.
const traceListLimit = 64

// handleTraceList serves soma.trace.list from the process trace store.
func (s *Service) handleTraceList(ctx context.Context, payload []byte) (mercury.Response, error) {
	// Honor the caller's propagated deadline: a trace listing for a caller
	// that already gave up is pure waste (dispatch sheds pre-expired calls;
	// this covers expiry during queueing too).
	if err := ctx.Err(); err != nil {
		return mercury.Response{}, err
	}
	var req traceReq
	if err := unmarshalFrame(payload, &req); err != nil {
		return mercury.Response{}, err
	}
	limit := traceListLimit
	if req.Limit > 0 {
		limit = req.Limit
	}
	var sums []telemetry.TraceSummary
	switch ts := telemetry.Default().Traces(); {
	case ts == nil:
	case req.Sort == "dur":
		sums = ts.Slowest(limit)
	default:
		sums = ts.List()
		if len(sums) > limit {
			sums = sums[:limit]
		}
	}
	return ownedFrame(conduit.Marshal(sums))
}

// handleTraceGet serves soma.trace.get.
func (s *Service) handleTraceGet(ctx context.Context, payload []byte) (mercury.Response, error) {
	if err := ctx.Err(); err != nil {
		return mercury.Response{}, err
	}
	var req traceReq
	if err := unmarshalFrame(payload, &req); err != nil {
		return mercury.Response{}, err
	}
	if req.Trace == 0 {
		return mercury.Response{}, errors.New("soma: bad trace id 0")
	}
	var tr telemetry.Trace // the zero Trace answers "not kept"
	if ts := telemetry.Default().Traces(); ts != nil {
		tr, _ = ts.Get(req.Trace)
	}
	return ownedFrame(conduit.Marshal(tr))
}

// Traces fetches kept-trace summaries from the service; slowest orders by
// root duration (the tail view), otherwise most recently kept first.
func (c *Client) Traces(limit int, slowest bool) ([]telemetry.TraceSummary, error) {
	req := traceReq{Limit: limit}
	if slowest {
		req.Sort = "dur"
	}
	var sums []telemetry.TraceSummary
	if err := c.call(context.Background(), RPCTraceList, req, &sums); err != nil {
		return nil, err
	}
	sums = slices.DeleteFunc(sums, func(s telemetry.TraceSummary) bool { return s.TraceID == 0 })
	sort.SliceStable(sums, func(i, j int) bool {
		if slowest {
			return sums[i].Dur > sums[j].Dur
		}
		return false // server order is already most-recent-first
	})
	return sums, nil
}

// Trace fetches one kept trace by id; ErrTraceNotFound when the sampler
// never kept it (or the bounded store evicted it).
func (c *Client) Trace(id uint64) (telemetry.Trace, error) {
	var tr telemetry.Trace
	if err := c.call(context.Background(), RPCTraceGet, traceReq{Trace: id}, &tr); err != nil {
		return telemetry.Trace{}, err
	}
	if tr.TraceID == 0 {
		return telemetry.Trace{}, fmt.Errorf("%w: %016x", ErrTraceNotFound, id)
	}
	tr.Spans = slices.DeleteFunc(tr.Spans, untraced)
	return tr, nil
}
