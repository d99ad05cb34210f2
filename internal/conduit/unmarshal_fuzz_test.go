package conduit_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/cluster"
	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// controlPlaneTypes returns a fresh pointer to each type the service's
// control plane carries through the codec, as a request or an answer. The
// service's own request and answer envelopes (the ns-scoped request, the
// trace request, the alert list, the ring view) are structs of these
// fields and of these types, and are round-tripped in core's
// TestWireTypesRoundTrip.
func controlPlaneTypes() []any {
	return []any{
		new(core.AlertRule), new([]core.AlertRule), new([]core.AlertState),
		new(core.HealthReport), new(map[core.Namespace]core.InstanceStats),
		new([]core.SelectMatch), new(core.Profile), new([]string),
		new(telemetry.Snapshot), new(telemetry.Trace), new([]telemetry.TraceSummary),
		new(cluster.Member), new([]cluster.Member),
	}
}

// FuzzUnmarshal feeds arbitrary bytes to DecodeBinary and unmarshals every
// tree it accepts into each control-plane type. Unmarshal must never panic,
// and a value it accepts must come back unchanged through Marshal, the wire
// and Unmarshal again — compared by encoding, which tells every value apart
// and, unlike reflect.DeepEqual, holds a NaN equal to itself.
func FuzzUnmarshal(f *testing.F) {
	start := time.Unix(0, 1_700_000_000_000_000_000)
	for _, v := range []any{
		core.AlertRule{Name: "hot", NS: core.NSHardware, Pattern: "PROC/*/CPU", Op: ">", Threshold: 90, WindowSec: 2, Severity: "critical"},
		[]core.AlertState{{Rule: "hot", NS: core.NSHardware, Key: "PROC/cn01/CPU", Firing: true, Value: 95, Since: 12}},
		core.HealthReport{Status: "ok", UptimeSec: 1.5, Publishes: 7, ClusterEpoch: 1 << 63,
			ClusterPeers: []core.ClusterPeerHealth{{ID: "b", Addr: "tcp://b", Alive: true, Misses: 1}}},
		map[core.Namespace]core.InstanceStats{core.NSHardware: {Ranks: 1, Stripes: 2, Publishes: 3, LastTime: 4.5, SeriesCap: 8192}},
		[]core.SelectMatch{{Path: "PROC/cn01/CPU", Value: 1, HasValue: true}, {Path: "tag"}},
		core.Profile{Kind: "cpu", Duration: time.Second, Data: []byte{0x1f, 0x8b, 0}},
		telemetry.Snapshot{
			Counters:   map[string]int64{"core.publishes": 3},
			Gauges:     map[string]float64{"core.series.bytes": 1024},
			Histograms: map[string]telemetry.HistogramSnapshot{"core.publish.latency": {Count: 2, P99: time.Millisecond, Exemplars: []telemetry.BucketExemplar{{Ceil: 1024, TraceID: 9}}}},
			Spans:      []telemetry.SpanSnapshot{{TraceID: 9, SpanID: 1, Name: "soma.client.publish", Start: start, Dur: time.Microsecond}},
		},
		telemetry.Trace{TraceID: 1<<64 - 1, Root: "op", Start: start, Spans: []telemetry.SpanSnapshot{{TraceID: 1, Parent: 2, Count: 3, Err: true}}},
		[]cluster.Member{{ID: "a", Addr: "tcp://a"}},
	} {
		enc := conduit.Marshal(v).EncodeBinary()
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	// Kinds the types do not expect where they expect others.
	odd := conduit.NewNode()
	odd.SetString("rules/000000/threshold", "high")
	odd.SetFloat("counters/x", 1)
	odd.SetIntArray("spans", []int64{1})
	odd.SetInt("ranks", 1<<40)
	f.Add(odd.EncodeBinary())

	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := conduit.DecodeBinary(data)
		if err != nil {
			return
		}
		for _, v := range controlPlaneTypes() {
			if conduit.Unmarshal(tree, v) != nil {
				continue
			}
			enc := conduit.Marshal(v).EncodeBinary()
			again, err := conduit.DecodeBinary(enc)
			if err != nil {
				t.Fatalf("%T: Marshal wrote a frame DecodeBinary rejects: %v", v, err)
			}
			back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := conduit.Unmarshal(again, back); err != nil {
				t.Fatalf("%T: Unmarshal rejects what Marshal wrote: %v", v, err)
			}
			if !bytes.Equal(conduit.Marshal(back).EncodeBinary(), enc) {
				t.Fatalf("%T changed across Marshal and Unmarshal", v)
			}
		}
	})
}
