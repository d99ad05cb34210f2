package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
)

// getQuery issues one /api/query and returns the status, the X-Soma-Cache
// header and the body.
func (tg *testGateway) getQuery(t *testing.T, query string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(tg.srv.URL + "/api/query?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Soma-Cache"), body.Bytes()
}

// queryJSON is the /api/query body as json.Marshal writes it.
func queryJSON(t *testing.T, ns core.Namespace, path string, tree *conduit.Node) []byte {
	t.Helper()
	body, err := json.Marshal(struct {
		NS   core.Namespace `json:"ns"`
		Path string         `json:"path"`
		Data *conduit.Node  `json:"data"`
	}{ns, path, tree})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestQueryNonFiniteLeaf: a published NaN or ±Inf leaf is expected input
// (conduit and ingest accept it). It renders as null — in the namespace's
// /api/query body and in the WebSocket frame that carries it — instead of
// failing the whole body or silently dropping the frame.
func TestQueryNonFiniteLeaf(t *testing.T) {
	tg := newTestGateway(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := Dial(ctx, "ws"+strings.TrimPrefix(tg.srv.URL, "http")+"/ws?ns=application")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	n := conduit.NewNode()
	n.SetFloat("APP/nan", math.NaN())
	n.SetFloat("APP/pinf", math.Inf(1))
	n.SetFloat("APP/ninf", math.Inf(-1))
	n.SetFloat("APP/ok", 1.5)
	if err := tg.svc.Publish(core.NSApplication, n, 0); err != nil {
		t.Fatal(err)
	}

	const want = `{"nan":null,"ninf":null,"ok":1.5,"pinf":null}`
	code, _, body := tg.getQuery(t, "ns=application&path=APP")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"data":`+want)) {
		t.Fatalf("/api/query: %d %s, want 200 with data %s", code, body, want)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		op, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("the update carrying the non-finite leaves never arrived: %v", err)
		}
		if op == OpPing {
			conn.WriteMessage(OpPong, payload)
			continue
		}
		if op != OpText {
			continue
		}
		if !json.Valid(payload) || !bytes.Contains(payload, []byte(`"data":{"APP":`+want+`}`)) {
			t.Fatalf("frame = %s, want valid JSON with data {\"APP\":%s}", payload, want)
		}
		return
	}
}

// TestQueryBodyReuse publishes to a few hosts between /api/query polls: each
// body is a miss, byte-identical to json.Marshal of {ns, path, data} over the
// client's current tree, and copies every host the poll did not change; a
// repeat poll is a hit with the same bytes.
func TestQueryBodyReuse(t *testing.T) {
	tg := newTestGateway(t, Config{})
	const hosts = 20
	all := conduit.NewNode()
	for h := 0; h < hosts; h++ {
		all.SetFloat(fmt.Sprintf("LOAD/cn%02d/cpu", h), float64(h))
		all.SetFloat(fmt.Sprintf("LOAD/cn%02d/mem", h), float64(h)/3)
	}
	if err := tg.svc.Publish(core.NSHardware, all, 0); err != nil {
		t.Fatal(err)
	}
	if code, cache, body := tg.getQuery(t, "ns=hardware&path=LOAD"); code != http.StatusOK || cache != "miss" {
		t.Fatalf("first poll: %d %q %s", code, cache, body)
	}
	for poll := 1; poll <= 6; poll++ {
		patch := conduit.NewNode()
		changed := 1 + poll%3
		for k := 0; k < changed; k++ {
			patch.SetFloat(fmt.Sprintf("LOAD/cn%02d/cpu", (poll*7+k)%hosts), float64(100*poll+k)+0.25)
		}
		if err := tg.svc.Publish(core.NSHardware, patch, 0); err != nil {
			t.Fatal(err)
		}
		reused0, rendered0 := counter("gateway.query.children_reused"), counter("gateway.query.children_rendered")
		code, cache, body := tg.getQuery(t, "ns=hardware&path=LOAD")
		if code != http.StatusOK || cache != "miss" {
			t.Fatalf("poll %d: %d %q %s", poll, code, cache, body)
		}
		tree, moved, err := tg.gw.client.QueryDelta(core.NSHardware, "LOAD")
		if err != nil || moved {
			t.Fatalf("poll %d: the client's tree moved under a quiet namespace (%v, %v)", poll, moved, err)
		}
		if want := queryJSON(t, core.NSHardware, "LOAD", tree); !bytes.Equal(body, want) {
			t.Fatalf("poll %d: body differs from json.Marshal of the client's tree:\n got %s\nwant %s", poll, body, want)
		}
		if !bytes.Contains(body, []byte(fmt.Sprintf(`"cpu":%d.25`, 100*poll))) {
			t.Fatalf("poll %d: body misses the published value: %s", poll, body)
		}
		reused := counter("gateway.query.children_reused") - reused0
		rendered := counter("gateway.query.children_rendered") - rendered0
		if rendered != int64(changed) || reused != hosts-int64(changed) {
			t.Fatalf("poll %d: %d children reused and %d rendered, want %d and %d",
				poll, reused, rendered, hosts-changed, changed)
		}
		code, cache, again := tg.getQuery(t, "ns=hardware&path=LOAD")
		if code != http.StatusOK || cache != "hit" || !bytes.Equal(again, body) {
			t.Fatalf("poll %d repeat: %d %q, same bytes %v", poll, code, cache, bytes.Equal(again, body))
		}
	}
	_, metrics := tg.get(t, "/metrics")
	for _, name := range []string{"gosoma_gateway_query_children_reused", "gosoma_gateway_query_children_rendered"} {
		if !bytes.Contains(metrics, []byte("# TYPE "+name+" counter")) {
			t.Errorf("/metrics does not export %s:\n%s", name, metrics)
		}
	}
}

// TestQueryBodyConcurrentPolls: pollers share one cache entry — each
// renders against, and replaces, the doc the others read — while a publisher
// keeps patching hosts. Every body must be whole: valid JSON holding every
// host. Run it under -race.
func TestQueryBodyConcurrentPolls(t *testing.T) {
	tg := newTestGateway(t, Config{RatePerSec: -1}) // more polls than one host's burst
	const hosts, pollers, polls = 16, 4, 40
	all := conduit.NewNode()
	for h := 0; h < hosts; h++ {
		all.SetFloat(fmt.Sprintf("LOAD/cn%02d/cpu", h), float64(h))
	}
	if err := tg.svc.Publish(core.NSHardware, all, 0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := conduit.NewNode()
			n.SetFloat(fmt.Sprintf("LOAD/cn%02d/cpu", i%hosts), float64(i))
			if err := tg.svc.Publish(core.NSHardware, n, 0); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	errs := make(chan error, pollers)
	for p := 0; p < pollers; p++ {
		go func() {
			for i := 0; i < polls; i++ {
				resp, err := http.Get(tg.srv.URL + "/api/query?ns=hardware&path=LOAD")
				if err != nil {
					errs <- err
					return
				}
				var q struct {
					Data map[string]map[string]float64 `json:"data"`
				}
				err = json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(q.Data) != hosts {
					errs <- fmt.Errorf("poll %d: %d with %d hosts, err %v", i, resp.StatusCode, len(q.Data), err)
					return
				}
			}
			errs <- nil
		}()
	}
	for p := 0; p < pollers; p++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-published
}

// wsUpdateJSON is the WebSocket frame's shape as a struct: json.Marshal of
// it is the oracle updateJSON's bytes must equal.
type wsUpdateJSON struct {
	NS              core.Namespace `json:"ns"`
	Time            float64        `json:"time"`
	Alert           bool           `json:"alert,omitempty"`
	Data            *conduit.Node  `json:"data"`
	DroppedUpstream int64          `json:"dropped_upstream"`
	DroppedWS       int64          `json:"dropped_ws"`
	Dropped         int64          `json:"dropped"`
}

func TestWSFrameMatchesMarshal(t *testing.T) {
	tree := conduit.NewNode()
	tree.SetFloat("PROC/cn01/CPU Util", 97.25)
	tree.SetString("RP/<task>", "a&b\u2028")
	for _, u := range []core.Update{
		{NS: core.NSHardware, Time: 12.5, Tree: tree},
		{NS: core.NSAlerts, Time: 1e-7, Alert: true, Tree: tree, Dropped: 3},
		{NS: "", Time: 0, Tree: nil, Dropped: 1 << 40},
		{NS: core.NSWorkflow, Time: 1e21, Tree: conduit.NewNode()},
	} {
		want, err := json.Marshal(wsUpdateJSON{u.NS, u.Time, u.Alert, u.Tree, u.Dropped, 7, u.Dropped + 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := updateJSON(u, 7); !bytes.Equal(got, want) {
			t.Errorf("frame differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	}
}

// bodySink keeps the benchmarked renders observable.
var bodySink *conduit.JSONDoc

// treeValue is a tree in its natural encoding/json shape, objects as maps:
// what a query body was marshaled from before the gateway wrote it from the
// tree directly.
func treeValue(n *conduit.Node) interface{} {
	if n.Kind() != conduit.KindObject {
		return n.Value()
	}
	m := make(map[string]interface{}, n.NumChildren())
	for _, name := range n.ChildNames() {
		m[name] = treeValue(n.Child(name))
	}
	return m
}

// BenchmarkQueryBody writes the dashboard workload's /api/query LOAD body —
// 125 hosts of 16 float metrics, 7 of them just grafted in — three ways:
// json.Marshal of the tree as maps (the oracle), a full render, and a
// re-render against the body of the tree before the graft.
func BenchmarkQueryBody(b *testing.B) {
	const hosts, metrics, grafted = 125, 16, 7
	full := conduit.NewNode()
	for h := 0; h < hosts; h++ {
		for m := 0; m < metrics; m++ {
			full.SetFloat(fmt.Sprintf("cn%04d/metric%02d", h, m), float64(h*metrics+m)*1.37)
		}
	}
	base, err := conduit.DecodeBinary(full.EncodeBinary()) // as the client's memo holds it
	if err != nil {
		b.Fatal(err)
	}
	patch := conduit.NewNode()
	for k := 0; k < grafted; k++ {
		patch.SetFloat(fmt.Sprintf("cn%04d/metric00", k*17), float64(k)+0.5)
	}
	tree := conduit.Graft(base, patch)
	prefix, suffix := []byte(`{"ns":"hardware","path":"LOAD","data":`), []byte("}")
	prev := conduit.RenderJSON(prefix, base, suffix, nil)
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(struct {
				NS   core.Namespace `json:"ns"`
				Path string         `json:"path"`
				Data interface{}    `json:"data"`
			}{core.NSHardware, "LOAD", treeValue(tree)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bodySink = conduit.RenderJSON(prefix, tree, suffix, nil)
		}
	})
	b.Run("rerender", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bodySink = conduit.RenderJSON(prefix, tree, suffix, prev)
		}
	})
}
