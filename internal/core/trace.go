package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// soma.trace.* — the query side of the trace pipeline. The telemetry
// package's TraceStore assembles completed spans into tail-sampled traces;
// these RPCs expose them, conduit-encoded like soma.telemetry, so somactl
// and somatop can answer "why was this publish slow?" against a live
// service.
//
// Wire formats (all ids are hex strings — full-range uint64s don't fit the
// int64 leaf type):
//
//	soma.trace.list  req  {limit?, sort?("dur"|"recent")}
//	                 resp traces/NNN/{trace,root,start_ns,dur_ns,spans,err,reason}
//	soma.trace.get   req  {trace}
//	                 resp found, trace/{trace,root,start_ns,dur_ns,err,reason,dropped_spans},
//	                      spans/NNNNNN/{trace,span,parent,name,start_ns,dur_ns,count,err}
const (
	RPCTraceList = "soma.trace.list"
	RPCTraceGet  = "soma.trace.get"
)

// ErrTraceNotFound reports that a queried trace id was never kept by the
// service's tail sampler, or has since been evicted from the bounded store.
var ErrTraceNotFound = errors.New("soma: trace not found (not kept by the sampler, or evicted)")

// traceListLimit bounds how many summaries one soma.trace.list response
// carries when the request does not say.
const traceListLimit = 64

func encodeTraceSummaries(sums []telemetry.TraceSummary) *conduit.Node {
	n := conduit.NewNode()
	for i, s := range sums {
		base := fmt.Sprintf("traces/%03d", i)
		n.SetString(base+"/trace", strconv.FormatUint(s.TraceID, 16))
		n.SetString(base+"/root", s.Root)
		n.SetInt(base+"/start_ns", s.Start.UnixNano())
		n.SetInt(base+"/dur_ns", int64(s.Dur))
		n.SetInt(base+"/spans", int64(s.Spans))
		n.SetBool(base+"/err", s.Err)
		n.SetString(base+"/reason", s.Reason)
	}
	return n
}

func decodeTraceSummaries(n *conduit.Node) []telemetry.TraceSummary {
	sub, ok := n.Get("traces")
	if !ok {
		return nil
	}
	var out []telemetry.TraceSummary
	for _, key := range sub.ChildNames() {
		e := sub.Child(key)
		var s telemetry.TraceSummary
		if hex, ok := e.StringVal("trace"); ok {
			s.TraceID, _ = strconv.ParseUint(hex, 16, 64)
		}
		if s.TraceID == 0 {
			continue
		}
		s.Root, _ = e.StringVal("root")
		if v, ok := e.Int("start_ns"); ok {
			s.Start = time.Unix(0, v)
		}
		if v, ok := e.Int("dur_ns"); ok {
			s.Dur = time.Duration(v)
		}
		if v, ok := e.Int("spans"); ok {
			s.Spans = int(v)
		}
		s.Err, _ = e.Bool("err")
		s.Reason, _ = e.StringVal("reason")
		out = append(out, s)
	}
	return out
}

func encodeSpan(n *conduit.Node, base string, sp telemetry.SpanSnapshot) {
	n.SetString(base+"/trace", strconv.FormatUint(sp.TraceID, 16))
	n.SetString(base+"/span", strconv.FormatUint(sp.SpanID, 16))
	if sp.Parent != 0 {
		n.SetString(base+"/parent", strconv.FormatUint(sp.Parent, 16))
	}
	n.SetString(base+"/name", sp.Name)
	n.SetInt(base+"/start_ns", sp.Start.UnixNano())
	n.SetInt(base+"/dur_ns", int64(sp.Dur))
	if sp.Count != 0 {
		n.SetInt(base+"/count", sp.Count)
	}
	if sp.Err {
		n.SetBool(base+"/err", true)
	}
}

func decodeSpan(e *conduit.Node) telemetry.SpanSnapshot {
	var sp telemetry.SpanSnapshot
	if s, ok := e.StringVal("trace"); ok {
		sp.TraceID, _ = strconv.ParseUint(s, 16, 64)
	}
	if s, ok := e.StringVal("span"); ok {
		sp.SpanID, _ = strconv.ParseUint(s, 16, 64)
	}
	if s, ok := e.StringVal("parent"); ok {
		sp.Parent, _ = strconv.ParseUint(s, 16, 64)
	}
	sp.Name, _ = e.StringVal("name")
	if v, ok := e.Int("start_ns"); ok {
		sp.Start = time.Unix(0, v)
	}
	if v, ok := e.Int("dur_ns"); ok {
		sp.Dur = time.Duration(v)
	}
	sp.Count, _ = e.Int("count")
	sp.Err, _ = e.Bool("err")
	return sp
}

func encodeTrace(tr telemetry.Trace) *conduit.Node {
	n := conduit.NewNode()
	n.SetBool("found", true)
	n.SetString("trace/trace", strconv.FormatUint(tr.TraceID, 16))
	n.SetString("trace/root", tr.Root)
	n.SetInt("trace/start_ns", tr.Start.UnixNano())
	n.SetInt("trace/dur_ns", int64(tr.Dur))
	n.SetBool("trace/err", tr.Err)
	n.SetString("trace/reason", tr.Reason)
	n.SetInt("trace/dropped_spans", int64(tr.DroppedSpans))
	for i, sp := range tr.Spans {
		encodeSpan(n, fmt.Sprintf("spans/%06d", i), sp)
	}
	return n
}

func decodeTrace(n *conduit.Node) (telemetry.Trace, bool) {
	if found, _ := n.Bool("found"); !found {
		return telemetry.Trace{}, false
	}
	var tr telemetry.Trace
	if sub, ok := n.Get("trace"); ok {
		if hex, ok := sub.StringVal("trace"); ok {
			tr.TraceID, _ = strconv.ParseUint(hex, 16, 64)
		}
		tr.Root, _ = sub.StringVal("root")
		if v, ok := sub.Int("start_ns"); ok {
			tr.Start = time.Unix(0, v)
		}
		if v, ok := sub.Int("dur_ns"); ok {
			tr.Dur = time.Duration(v)
		}
		tr.Err, _ = sub.Bool("err")
		tr.Reason, _ = sub.StringVal("reason")
		if v, ok := sub.Int("dropped_spans"); ok {
			tr.DroppedSpans = int(v)
		}
	}
	if sub, ok := n.Get("spans"); ok {
		for _, key := range sub.ChildNames() {
			sp := decodeSpan(sub.Child(key))
			if sp.TraceID != 0 {
				tr.Spans = append(tr.Spans, sp)
			}
		}
	}
	return tr, tr.TraceID != 0
}

// handleTraceList serves soma.trace.list from the process trace store.
func (s *Service) handleTraceList(ctx context.Context, payload []byte) (mercury.Response, error) {
	// Honor the caller's propagated deadline: a trace listing for a caller
	// that already gave up is pure waste (dispatch sheds pre-expired calls;
	// this covers expiry during queueing too).
	if err := ctx.Err(); err != nil {
		return mercury.Response{}, err
	}
	limit, sortBy := traceListLimit, "recent"
	if req, err := conduit.DecodeBinary(payload); err == nil {
		if v, ok := req.Int("limit"); ok && v > 0 {
			limit = int(v)
		}
		if v, ok := req.StringVal("sort"); ok && v != "" {
			sortBy = v
		}
	}
	ts := telemetry.Default().Traces()
	if ts == nil {
		return ownedFrame(conduit.NewNode())
	}
	var sums []telemetry.TraceSummary
	if sortBy == "dur" {
		sums = ts.Slowest(limit)
	} else {
		sums = ts.List()
		if len(sums) > limit {
			sums = sums[:limit]
		}
	}
	return ownedFrame(encodeTraceSummaries(sums))
}

// handleTraceGet serves soma.trace.get.
func (s *Service) handleTraceGet(ctx context.Context, payload []byte) (mercury.Response, error) {
	if err := ctx.Err(); err != nil {
		return mercury.Response{}, err
	}
	req, err := conduit.DecodeBinary(payload)
	if err != nil {
		return mercury.Response{}, err
	}
	hex, _ := req.StringVal("trace")
	id, err := strconv.ParseUint(hex, 16, 64)
	if err != nil || id == 0 {
		return mercury.Response{}, fmt.Errorf("soma: bad trace id %q", hex)
	}
	ts := telemetry.Default().Traces()
	if ts == nil {
		return ownedFrame(conduit.NewNode())
	}
	tr, ok := ts.Get(id)
	if !ok {
		return ownedFrame(conduit.NewNode())
	}
	return ownedFrame(encodeTrace(tr))
}

// Traces fetches kept-trace summaries from the service; slowest orders by
// root duration (the tail view), otherwise most recently kept first.
func (c *Client) Traces(limit int, slowest bool) ([]telemetry.TraceSummary, error) {
	req := conduit.NewNode()
	if limit > 0 {
		req.SetInt("limit", int64(limit))
	}
	if slowest {
		req.SetString("sort", "dur")
	}
	resp, err := c.call(context.Background(), RPCTraceList, req)
	if err != nil {
		return nil, err
	}
	sums := decodeTraceSummaries(resp)
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
	req := conduit.NewNode()
	req.SetString("trace", strconv.FormatUint(id, 16))
	resp, err := c.call(context.Background(), RPCTraceGet, req)
	if err != nil {
		return telemetry.Trace{}, err
	}
	tr, ok := decodeTrace(resp)
	if !ok {
		return telemetry.Trace{}, fmt.Errorf("%w: %016x", ErrTraceNotFound, id)
	}
	return tr, nil
}
