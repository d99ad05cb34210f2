package core

import (
	"context"
	"slices"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// soma.telemetry answers with the process's telemetry.Snapshot as the codec
// lays it out: counters/<name>, gauges/<name>, hist/<name>/{count, sum_ns,
// …, exemplars} and spans/NNNNNN/{trace, span, …}, as the snapshot's tags
// name them. The service eats its own data model here too, so any SOMA
// client (somatop, somactl, analyses) consumes it with the tools it already
// has.

// handleTelemetry serves the full registry snapshot, the RPC somatop's
// telemetry panel and `somactl telemetry` consume. The snapshot changes on
// every scrape (latency histograms move), so instead of caching it encodes
// into a pooled buffer released after the transport writes the frame.
func (s *Service) handleTelemetry(_ context.Context, _ []byte) (mercury.Response, error) {
	return ownedFrame(conduit.Marshal(telemetry.Default().Snapshot()))
}

// Telemetry fetches the service process's full telemetry registry snapshot
// (RPC latency histograms, queue gauges, counters, recent spans) via the
// soma.telemetry RPC. Spans and exemplars without a trace id are dropped.
func (c *Client) Telemetry() (*telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	if err := c.call(context.Background(), RPCTelemetry, nil, &snap); err != nil {
		return nil, err
	}
	snap.Spans = slices.DeleteFunc(snap.Spans, untraced)
	for name, h := range snap.Histograms {
		h.Exemplars = slices.DeleteFunc(h.Exemplars, func(ex telemetry.BucketExemplar) bool { return ex.TraceID == 0 })
		snap.Histograms[name] = h
	}
	return &snap, nil
}

// untraced reports a span that carries no trace id: one a decoder drops.
func untraced(sp telemetry.SpanSnapshot) bool { return sp.TraceID == 0 }
