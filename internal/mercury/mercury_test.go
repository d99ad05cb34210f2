package mercury

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"github.com/hpcobs/gosoma/internal/telemetry"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func echoEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	e.Register("echo", func(_ context.Context, in []byte) ([]byte, error) {
		return in, nil
	})
	e.Register("fail", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	t.Cleanup(func() { e.Close() })
	return e
}

func TestInprocRoundTrip(t *testing.T) {
	e := echoEngine(t)
	addr, err := e.Listen("inproc://test-echo")
	if err != nil {
		t.Fatal(err)
	}
	if addr != "inproc://test-echo" {
		t.Fatalf("addr = %q", addr)
	}
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	out, err := ep.Call(context.Background(), "echo", []byte("hi"))
	if err != nil || string(out) != "hi" {
		t.Fatalf("call = %q, %v", out, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	e := echoEngine(t)
	addr, err := e.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(addr, "tcp://127.0.0.1:") || strings.HasSuffix(addr, ":0") {
		t.Fatalf("concrete addr = %q", addr)
	}
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	payload := bytes.Repeat([]byte("x"), 100_000)
	out, err := ep.Call(context.Background(), "echo", payload)
	if err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("large call failed: %v (len %d)", err, len(out))
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	e := echoEngine(t)
	for _, scheme := range []string{"inproc://err-prop", "tcp://127.0.0.1:0"} {
		addr, err := e.Listen(scheme)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := Lookup(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ep.Call(context.Background(), "fail", nil)
		if !errors.Is(err, ErrRemoteFailed) || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: err = %v, want ErrRemoteFailed with boom", scheme, err)
		}
		_, err = ep.Call(context.Background(), "no-such-rpc", nil)
		if !errors.Is(err, ErrUnknownRPC) {
			t.Errorf("%s: err = %v, want ErrUnknownRPC", scheme, err)
		}
		ep.Close()
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	e := NewEngine()
	var inflight, peak atomic.Int32
	e.Register("slow", func(_ context.Context, in []byte) ([]byte, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inflight.Add(-1)
		return in, nil
	})
	defer e.Close()
	addr, err := e.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			out, err := ep.Call(context.Background(), "slow", msg)
			if err == nil && !bytes.Equal(out, msg) {
				err = fmt.Errorf("response mismatch: %q", out)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d; requests were serialized", peak.Load())
	}
}

func TestContextCancellation(t *testing.T) {
	e := NewEngine()
	block := make(chan struct{})
	e.Register("block", func(_ context.Context, _ []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	defer func() { close(block); e.Close() }()
	addr, _ := e.Listen("tcp://127.0.0.1:0")
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = ep.Call(ctx, "block", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestLookupFailures(t *testing.T) {
	if _, err := Lookup("bogus"); !errors.Is(err, ErrBadAddress) {
		t.Errorf("no scheme: %v", err)
	}
	if _, err := Lookup("carrier://x"); !errors.Is(err, ErrBadAddress) {
		t.Errorf("bad scheme: %v", err)
	}
	if _, err := Lookup("inproc://nobody-home"); err == nil {
		t.Error("lookup of unregistered inproc name succeeded")
	}
	if _, err := Lookup("tcp://127.0.0.1:1"); err == nil {
		t.Error("dial of closed port succeeded")
	}
}

func TestInprocNameCollision(t *testing.T) {
	a := NewEngine()
	defer a.Close()
	b := NewEngine()
	defer b.Close()
	if _, err := a.Listen("inproc://dup-name"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Listen("inproc://dup-name"); err == nil {
		t.Fatal("duplicate inproc name accepted")
	}
	// After a closes, the name becomes free again.
	a.Close()
	if _, err := b.Listen("inproc://dup-name"); err != nil {
		t.Fatalf("name not released after Close: %v", err)
	}
}

func TestEngineCloseFailsPendingCalls(t *testing.T) {
	e := NewEngine()
	started := make(chan struct{})
	release := make(chan struct{})
	e.Register("block", func(_ context.Context, _ []byte) ([]byte, error) {
		close(started)
		<-release
		return []byte("late"), nil
	})
	addr, _ := e.Listen("tcp://127.0.0.1:0")
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	callErr := make(chan error, 1)
	go func() {
		_, err := ep.Call(context.Background(), "block", nil)
		callErr <- err
	}()
	<-started
	ep.Close() // drop the client connection while a call is pending
	close(release)
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("pending call returned nil after connection close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never failed")
	}
	e.Close()
}

func TestListenAfterClose(t *testing.T) {
	e := NewEngine()
	e.Close()
	if _, err := e.Listen("inproc://after-close"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestStatsCounting(t *testing.T) {
	e := echoEngine(t)
	addr, _ := e.Listen("inproc://stats-count")
	client := NewEngine()
	defer client.Close()
	ep, err := client.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ep.Call(context.Background(), "echo", []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = ep.Call(context.Background(), "fail", nil)
	if got := e.Stats.CallsServed.Load(); got != 4 {
		t.Errorf("CallsServed = %d want 4", got)
	}
	if got := e.Stats.HandlerErrors.Load(); got != 1 {
		t.Errorf("HandlerErrors = %d want 1", got)
	}
	if got := client.Stats.CallsIssued.Load(); got != 4 {
		t.Errorf("CallsIssued = %d want 4", got)
	}
	if got := e.Stats.BytesIn.Load(); got != 12 {
		t.Errorf("BytesIn = %d want 12", got)
	}
}

func TestFrameTooBig(t *testing.T) {
	e := echoEngine(t)
	addr, _ := e.Listen("tcp://127.0.0.1:0")
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	huge := make([]byte, MaxFrame+1)
	if _, err := ep.Call(context.Background(), "echo", huge); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestAddrsReporting(t *testing.T) {
	e := echoEngine(t)
	a1, _ := e.Listen("inproc://addrs-1")
	a2, _ := e.Listen("tcp://127.0.0.1:0")
	addrs := e.Addrs()
	if len(addrs) != 2 || addrs[0] != a1 || addrs[1] != a2 {
		t.Fatalf("Addrs = %v", addrs)
	}
}

func BenchmarkMercuryTransports(b *testing.B) {
	payload := bytes.Repeat([]byte("m"), 1024)
	for _, tc := range []struct{ name, addr string }{
		{"inproc", "inproc://bench-inproc"},
		{"tcp", "tcp://127.0.0.1:0"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := NewEngine()
			e.Register("echo", func(_ context.Context, in []byte) ([]byte, error) { return in, nil })
			addr, err := e.Listen(tc.addr)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			ep, err := Lookup(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer ep.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ep.Call(context.Background(), "echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestCallRejectedAfterEngineClose(t *testing.T) {
	server := echoEngine(t)
	for _, scheme := range []string{"inproc://close-reject", "tcp://127.0.0.1:0"} {
		addr, err := server.Listen(scheme)
		if err != nil {
			t.Fatal(err)
		}
		client := NewEngine()
		ep, err := client.Lookup(addr)
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the endpoint works before Close.
		if _, err := ep.Call(context.Background(), "echo", []byte("ok")); err != nil {
			t.Fatalf("%s: pre-close call failed: %v", scheme, err)
		}
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
		// New calls must fail fast with ErrClosed — no racing the teardown.
		if _, err := ep.Call(context.Background(), "echo", []byte("late")); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: call after engine close = %v, want ErrClosed", scheme, err)
		}
		// A fresh Lookup on the closed engine is also rejected.
		if _, err := client.Lookup(addr); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: lookup on closed engine = %v, want ErrClosed", scheme, err)
		}
	}
}

func TestInprocDispatchAfterTargetClose(t *testing.T) {
	server := NewEngine()
	server.Register("echo", func(_ context.Context, in []byte) ([]byte, error) { return in, nil })
	addr, err := server.Listen("inproc://target-close")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	server.Close()
	if _, err := ep.Call(context.Background(), "echo", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("call into closed inproc engine = %v, want ErrClosed", err)
	}
}

func TestTracePropagation(t *testing.T) {
	for _, scheme := range []string{"inproc://trace-prop", "tcp://127.0.0.1:0"} {
		e := NewEngine()
		seen := make(chan telemetry.TraceContext, 1)
		e.Register("trace", func(ctx context.Context, _ []byte) ([]byte, error) {
			seen <- telemetry.FromContext(ctx)
			return nil, nil
		})
		addr, err := e.Listen(scheme)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := Lookup(addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, sp := telemetry.StartSpan(context.Background(), "client.op")
		if _, err := ep.Call(ctx, "trace", nil); err != nil {
			t.Fatal(err)
		}
		sp.End()
		got := <-seen
		want := sp.Context()
		if got != want {
			t.Errorf("%s: handler saw trace %+v, caller sent %+v", scheme, got, want)
		}
		// An untraced call carries no trace context.
		if _, err := ep.Call(context.Background(), "trace", nil); err != nil {
			t.Fatal(err)
		}
		if got := <-seen; got.Valid() {
			t.Errorf("%s: untraced call delivered trace %+v", scheme, got)
		}
		ep.Close()
		e.Close()
	}
}

func TestLatencyHistogramsRecorded(t *testing.T) {
	e := echoEngine(t)
	addr, _ := e.Listen("inproc://hist-record")
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	srvBefore := serverHist("echo").Count()
	cliBefore := clientHist("echo").Count()
	for i := 0; i < 3; i++ {
		if _, err := ep.Call(context.Background(), "echo", []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := serverHist("echo").Count() - srvBefore; got != 3 {
		t.Errorf("server histogram grew by %d, want 3", got)
	}
	if got := clientHist("echo").Count() - cliBefore; got != 3 {
		t.Errorf("client histogram grew by %d, want 3", got)
	}
}

func TestBlockingHandlerCancelledOnClose(t *testing.T) {
	// A blocking (long-poll) handler parks on its context; engine Close must
	// cancel it and complete promptly instead of waiting out the poll.
	e := NewEngine()
	entered := make(chan struct{})
	e.RegisterBlocking("park", func(ctx context.Context, _ []byte) (Response, error) {
		close(entered)
		select {
		case <-ctx.Done():
			return Response{Payload: []byte("cancelled")}, nil
		case <-time.After(30 * time.Second):
			return Response{}, errors.New("poll timeout")
		}
	})
	addr, err := e.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	type result struct {
		out []byte
		err error
	}
	res := make(chan result, 1)
	go func() {
		out, err := ep.Call(context.Background(), "park", nil)
		res <- result{out, err}
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited on a parked blocking handler")
	}
	// The parked call either returned its cancellation response or lost the
	// connection — it must not still be hanging.
	select {
	case <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("call still parked after Close")
	}
}

func TestBlockingHandlerNormalReturn(t *testing.T) {
	// Outside shutdown, a blocking handler behaves like any other.
	e := NewEngine()
	defer e.Close()
	e.RegisterBlocking("quick", func(_ context.Context, in []byte) (Response, error) {
		return Response{Payload: in}, nil
	})
	addr, err := e.Listen("inproc://blocking-normal")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	out, err := ep.Call(context.Background(), "quick", []byte("hi"))
	if err != nil || string(out) != "hi" {
		t.Fatalf("call = %q, %v", out, err)
	}
}

func TestCloseSeversIdleConnections(t *testing.T) {
	// Close must not wait for connected-but-idle clients to hang up.
	e := NewEngine()
	e.Register("echo", func(_ context.Context, in []byte) ([]byte, error) { return in, nil })
	addr, err := e.Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := ep.Call(context.Background(), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for an idle client connection")
	}
}
