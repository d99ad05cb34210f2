package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// startSolo boots one unclustered in-proc service.
func startSolo(t testing.TB, cfg ServiceConfig) (*Service, string) {
	t.Helper()
	svc := NewService(cfg)
	addr, err := svc.Listen(fmt.Sprintf("inproc://solo-%s", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, addr
}

// rawCall sends one request frame and returns the response frame as it came
// off the transport.
func rawCall(t testing.TB, addr, rpc string, req *conduit.Node) ([]byte, error) {
	t.Helper()
	ep, err := mercury.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	return ep.Call(context.Background(), rpc, req.EncodeBinary())
}

// readReq is a request every scattered row accepts: soma.query* read
// {ns, path}, soma.series without a key reads {ns, pattern}, soma.alert.list
// reads nothing.
func readReq(ns string) *conduit.Node {
	req := conduit.NewNode()
	req.SetString("ns", ns)
	req.SetString("path", "")
	req.SetString("pattern", "")
	return req
}

// keyReq is a soma.series request for one key.
func keyReq(key string) *conduit.Node {
	req := readReq(string(NSHardware))
	req.SetString("key", key)
	return req
}

func scatteredRows() []string {
	var names []string
	for _, row := range rpcTable {
		if row.kind == rpcScattered {
			names = append(names, row.name)
		}
	}
	return names
}

// TestRPCTable is the conformance test of the one declaration: what is
// registered, what may be retried, and that a row answers the same alone, by
// its ".local" name, and from every member of a fleet.
func TestRPCTable(t *testing.T) {
	_, solo := startSolo(t, ServiceConfig{})
	c, err := Connect(solo, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetAlert(AlertRule{NS: NSHardware, Name: "hot", Pattern: "T/*/temp", Op: ">", Threshold: 50, WindowSec: 60, Severity: "warn"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		n := conduit.NewNode()
		n.SetFloat(fmt.Sprintf("T/cn%03d/temp", i), 90)
		if err := c.Publish(NSHardware, n); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("local twins answer byte-identically on a solo service", func(t *testing.T) {
		for _, q := range []struct {
			rpc string
			req *conduit.Node
		}{
			{RPCSeries, readReq(string(NSHardware))},
			{RPCSeries, keyReq("T/cn000/temp")},
			{RPCAlertList, readReq("")},
		} {
			a, errA := rawCall(t, solo, q.rpc, q.req)
			b, errB := rawCall(t, solo, q.rpc+".local", q.req)
			if errA != nil || errB != nil {
				t.Fatalf("%s: %v / .local: %v", q.rpc, errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s and %s.local answer differently on a solo service", q.rpc, q.rpc)
			}
		}
	})

	t.Run("idempotent set is the readOnly column", func(t *testing.T) {
		got := IdempotentRPCs()
		sort.Strings(got)
		// The list as it was written by hand before the table existed.
		want := []string{
			RPCQuery, RPCQueryDelta, RPCSelect, RPCStats, RPCHealth,
			RPCTelemetry, RPCSeries, RPCAlertList, RPCTraceList, RPCTraceGet,
			RPCRing, RPCQueryLocal, RPCQueryDeltaLocal, RPCSeriesLocal,
			RPCAlertListLocal,
		}
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("IdempotentRPCs() = %v\nwant %v", got, want)
		}
		never := mercury.IdempotentSet(RPCProfile, RPCPublish, RPCPublishLocal, RPCPublishBatch,
			RPCAlertSet, RPCAlertRemove, RPCReset, RPCShutdown,
			rpcUpdatesSub, rpcUpdatesRecv, rpcUpdatesUnsub)
		for _, name := range got {
			if never(name) {
				t.Errorf("%s must never be retried", name)
			}
		}
		var fromRows []string
		for _, row := range rpcTable {
			if row.readOnly {
				fromRows = append(fromRows, row.name)
				if row.kind != rpcLocal {
					fromRows = append(fromRows, row.name+".local")
				}
			}
		}
		sort.Strings(fromRows)
		if strings.Join(got, " ") != strings.Join(fromRows, " ") {
			t.Errorf("IdempotentRPCs() = %v, readOnly rows and their .local names = %v", got, fromRows)
		}
	})

	// Last on this service: the loop reaches soma.shutdown.
	t.Run("registration", func(t *testing.T) {
		unknown := func(rpc string) bool {
			_, err := rawCall(t, solo, rpc, readReq(string(NSHardware)))
			return errors.Is(err, mercury.ErrUnknownRPC)
		}
		for _, row := range rpcTable {
			if unknown(row.name) {
				t.Errorf("%s is in the table but not registered", row.name)
			}
			if twin := row.kind != rpcLocal; unknown(row.name+".local") == twin {
				t.Errorf("%s.local registered = %v, want %v (placed and scattered rows only)", row.name, !twin, twin)
			}
		}
		if !unknown("soma.nope") {
			t.Error("an unknown soma.* name did not answer mercury.ErrUnknownRPC")
		}
		// The table is everything a service registers: the zmq.* names an
		// older somad answered are gone, not aliased.
		for _, rpc := range []string{
			"zmq.pubsub.sub", "zmq.pubsub.recv", "zmq.pubsub.unsub", "zmq.pubsub.stats",
			"zmq.queue.push", "zmq.queue.pull", "zmq.queue.len",
		} {
			if !unknown(rpc) {
				t.Errorf("%s is registered outside the table", rpc)
			}
		}
	})

	t.Run("every member of a fleet answers the same", func(t *testing.T) {
		_, addrs := startFleet(t, 3)
		truth := publishFleet(t, addrs, 30)
		c0, err := Connect(addrs[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c0.Close()
		if err := c0.SetAlert(AlertRule{NS: NSHardware, Name: "any", Pattern: "FLEET/*/metric", Op: ">", Threshold: -1, WindowSec: 60, Severity: "warn"}); err != nil {
			t.Fatal(err)
		}
		publishFleet(t, addrs, 30) // again, now judged by the rule
		// everyMember asks each member and returns the one answer they agree on.
		everyMember := func(rpc string, req *conduit.Node) *conduit.Node {
			t.Helper()
			var first *conduit.Node
			for i, addr := range addrs {
				out, err := rawCall(t, addr, rpc, req)
				if err != nil {
					t.Fatalf("%s through member %d: %v", rpc, i, err)
				}
				got, err := conduit.DecodeBinary(out)
				if err != nil {
					t.Fatalf("%s through member %d: %v", rpc, i, err)
				}
				if rpc == RPCQuery || rpc == RPCQueryDelta {
					// Each member stamps its union with an epoch of its own.
					if epoch, _ := got.Int("epoch"); epoch == 0 {
						t.Errorf("%s through member %d is unstamped", rpc, i)
					}
					got.Remove("epoch")
					got.Remove("gen")
				}
				if first == nil {
					first = got
				} else if !got.Equal(first) {
					t.Errorf("%s through member %d differs from member 0\n got: %s\nwant: %s", rpc, i, got.Format(), first.Format())
				}
			}
			return first
		}
		for _, rpc := range scatteredRows() {
			got := everyMember(rpc, readReq(string(NSHardware)))
			switch rpc {
			case RPCQuery, RPCQueryDelta:
				data, _ := got.Get("data")
				checkTruth(t, data, truth)
			case RPCSeries:
				var keys []string
				if err := conduit.Unmarshal(got, &keys); err != nil || len(keys) != len(truth) {
					t.Errorf("%s lists %d keys (%v), want %d", rpc, len(keys), err, len(truth))
				}
			case RPCAlertList:
				var l alertList
				if err := conduit.Unmarshal(got, &l); err != nil || len(l.Rules) != 1 || len(l.States) == 0 {
					t.Errorf("%s: %d rules and %d standings (%v), want the one rule and member 0's standings", rpc, len(l.Rules), len(l.States), err)
				}
			default:
				t.Errorf("scattered row %s has no check here", rpc)
			}
		}
		if se := decodeSeriesResp(everyMember(RPCSeries, keyReq("FLEET/cn007/metric"))); len(se.Bucket) == 0 {
			t.Error("soma.series of one key answers no buckets")
		}
	})
}

// TestRPCSoloFleetParity: a scattered row's own handler is the local share of
// its scatter, so what that handler refuses — a stopped service, a bogus
// namespace, rollups disabled — a clustered member refuses in the same words
// as a solo service, by the row's name and by its ".local" name alike.
func TestRPCSoloFleetParity(t *testing.T) {
	noRollups := ServiceConfig{DisableRollups: true}
	_, solo := startSolo(t, noRollups)
	svcs, addrs := startFleetOf(t, []ServiceConfig{noRollups, {}, {}})
	publishFleet(t, addrs, 12)

	// verdict renders an answer for comparison: the error text, or "ok".
	verdict := func(addr, rpc string, req *conduit.Node) string {
		if _, err := rawCall(t, addr, rpc, req); err != nil {
			return err.Error()
		}
		return "ok"
	}
	same := func(what string, member int, req *conduit.Node) {
		t.Helper()
		for _, rpc := range scatteredRows() {
			for _, name := range []string{rpc, rpc + ".local"} {
				want := verdict(solo, name, req)
				if got := verdict(addrs[member], name, req); got != want {
					t.Errorf("%s: %s through member %d answers %q, a solo service %q", what, name, member, got, want)
				}
			}
		}
	}

	for i := range svcs {
		same("bogus namespace", i, readReq("bogus"))
	}
	// Member 0 has no rollups, like the solo service; its peers do.
	if want := "rollups disabled"; !strings.Contains(verdict(solo, RPCSeries, readReq(string(NSHardware))), want) {
		t.Fatalf("a solo service without rollups does not answer soma.series with %q", want)
	}
	same("rollups disabled", 0, readReq(string(NSHardware)))

	if _, err := rawCall(t, solo, RPCShutdown, conduit.NewNode()); err != nil {
		t.Fatal(err)
	}
	if got := verdict(solo, RPCAlertList, readReq("")); !strings.Contains(got, ErrServiceStopped.Error()) {
		t.Fatalf("a stopped solo service answers soma.alert.list with %q", got)
	}
	for i, addr := range addrs {
		if _, err := rawCall(t, addr, RPCShutdown, conduit.NewNode()); err != nil {
			t.Fatal(err)
		}
		same("after soma.shutdown", i, readReq(string(NSHardware)))
	}
}

// TestRPCTableDocumented keeps DESIGN.md's "RPC surface" section — the fourth
// copy of the table — from drifting: every row must have a line there.
func TestRPCTableDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 4l. RPC surface")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 4l. RPC surface" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, row := range rpcTable {
		if !strings.Contains(section, "\n| `"+row.name+"` |") {
			t.Errorf("DESIGN.md's RPC surface table has no row for `%s`", row.name)
		}
	}
}
