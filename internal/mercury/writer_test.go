package mercury

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The frameWriter's contract, on both ends of a connection: zero-copy
// responses arrive intact and are released once, injected connections see
// one whole frame per Write, a severed connection still releases what was
// queued, and a dead session refuses and recycles new frames. Also the
// reader's: a corrupt incoming frame is a transport fault.

// frameCheckInjector wraps both ends' connections. It counts Writes whose
// buffer is not exactly one whole frame (the length prefix must count the
// rest of the buffer) and, while corrupt > 0, mangles a server write's
// length prefix beyond MaxFrame, as faults.Config.CorruptProb does.
type frameCheckInjector struct {
	writes, split atomic.Int64
	corrupt       atomic.Int64
}

func (i *frameCheckInjector) WrapConn(conn net.Conn, client bool) net.Conn {
	return &frameCheckConn{Conn: conn, i: i, server: !client}
}

func (i *frameCheckInjector) InprocCall(string) InjectedFault { return InjectedFault{} }

type frameCheckConn struct {
	net.Conn
	i      *frameCheckInjector
	server bool
}

func (c *frameCheckConn) Write(b []byte) (int, error) {
	c.i.writes.Add(1)
	if len(b) < 4 || int(binary.LittleEndian.Uint32(b)) != len(b)-4 {
		c.i.split.Add(1)
	}
	if c.server && c.i.corrupt.Add(-1) >= 0 {
		mangled := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(mangled, 0xffffffff)
		if _, err := c.Conn.Write(mangled); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// ownedPayloads registers "big", an owned handler answering request i (a
// decimal) with n bytes of byte(i), whose Release scribbles over the buffer
// — as a pool reusing it would — and counts per request.
func ownedPayloads(e *Engine, n int, released []atomic.Int64) {
	e.RegisterOwned("big", func(_ context.Context, in []byte) (Response, error) {
		var i int
		fmt.Sscan(string(in), &i)
		buf := bytes.Repeat([]byte{byte(i)}, n)
		return Response{Payload: buf, Release: func() {
			for k := range buf {
				buf[k] = 0xEE
			}
			released[i].Add(1)
		}}, nil
	})
}

// waitReleased waits until every counter reads 1 and fails on any other
// final value.
func waitReleased(t *testing.T, released []atomic.Int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for i := range released {
			if released[i].Load() != 1 {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a second release would land by now
	for i := range released {
		if got := released[i].Load(); got != 1 {
			t.Errorf("response %d released %d times, want once", i, got)
		}
	}
}

// An owned response of at least zeroCopyMinFrame bytes travels as a
// header+payload pair: it must arrive intact and be released exactly once,
// after it was written. On injected connections every Write must carry one
// whole frame.
func TestZeroCopyResponseReleasedOnce(t *testing.T) {
	for _, injected := range []bool{false, true} {
		t.Run(fmt.Sprintf("injected=%v", injected), func(t *testing.T) {
			const calls = 32
			inj := &frameCheckInjector{}
			var opts []Option
			if injected {
				opts = append(opts, WithInjector(inj))
			}
			released := make([]atomic.Int64, calls)
			e := NewEngine(opts...)
			ownedPayloads(e, zeroCopyMinFrame, released)
			defer e.Close()
			addr, err := e.Listen("tcp://127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			client := NewEngine(opts...) // its dialed connections are injected too
			defer client.Close()
			ep, err := client.Lookup(addr)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, err := ep.Call(context.Background(), "big", []byte(fmt.Sprint(i)))
					if err != nil {
						t.Errorf("call %d: %v", i, err)
						return
					}
					if want := bytes.Repeat([]byte{byte(i)}, zeroCopyMinFrame); !bytes.Equal(out, want) {
						t.Errorf("call %d: response of %d bytes is not %d bytes of %d", i, len(out), len(want), i)
					}
				}(i)
			}
			wg.Wait()
			waitReleased(t, released)
			if injected {
				if w := inj.writes.Load(); w < 2*calls {
					t.Errorf("injector saw %d writes, want at least %d (a request and a response per call)", w, 2*calls)
				}
				if s := inj.split.Load(); s != 0 {
					t.Errorf("%d writes were not one whole frame", s)
				}
			}
		})
	}
}

// gateInjector blocks the first server-side Write until gate closes and then
// fails it, severing the connection with responses queued behind it.
type gateInjector struct {
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gateInjector) WrapConn(conn net.Conn, client bool) net.Conn {
	if client {
		return conn
	}
	return &gateConn{Conn: conn, g: g}
}

func (g *gateInjector) InprocCall(string) InjectedFault { return InjectedFault{} }

type gateConn struct {
	net.Conn
	g *gateInjector
}

func (c *gateConn) Write(b []byte) (int, error) {
	first := false
	c.g.once.Do(func() { first = true })
	if !first {
		return c.Conn.Write(b)
	}
	close(c.g.entered)
	<-c.g.gate
	return 0, net.ErrClosed
}

// A connection severed while responses wait in its writer must still release
// every one of them exactly once: the one whose write failed, the ones
// gathered beside it and the ones still queued.
func TestSeveredConnectionReleasesQueuedResponses(t *testing.T) {
	const calls = 16
	g := &gateInjector{entered: make(chan struct{}), gate: make(chan struct{})}
	e := NewEngine(WithInjector(g))
	released := make([]atomic.Int64, calls)
	var answered atomic.Int64
	e.RegisterOwned("owned", func(_ context.Context, in []byte) (Response, error) {
		var i int
		fmt.Sscan(string(in), &i)
		n := 16
		if i%2 == 1 {
			n = zeroCopyMinFrame // every other response is a zero-copy pair
		}
		defer answered.Add(1)
		return Response{Payload: make([]byte, n), Release: func() { released[i].Add(1) }}, nil
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
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep.Call(ctx, "owned", []byte(fmt.Sprint(i))) // fails once severed
		}(i)
	}
	select {
	case <-g.entered:
	case <-ctx.Done():
		t.Fatal("no response write started")
	}
	for answered.Load() < calls && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the last handlers enqueue their responses
	close(g.gate)
	wg.Wait()
	e.Close() // waits for the connection's writer to drain
	for i := range released {
		if got := released[i].Load(); got != 1 {
			t.Errorf("response %d released %d times, want once", i, got)
		}
	}
}

// A frame handed to a session that has already failed never enters the
// queue: enqueueWrite returns the session's error and recycles the frame.
func TestEnqueueAfterSessionFailure(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	s := newTCPSession(client, false)
	severed := errors.New("severed")
	s.fail(severed)
	bp := getFrame(16)
	if err := s.enqueueWrite(bp); !errors.Is(err, severed) {
		t.Fatalf("enqueueWrite after failure = %v, want the session's error %v", err, severed)
	}
	if n := len(s.w.queue); n != 0 {
		t.Fatalf("%d frames queued to a dead session", n)
	}
	if raceEnabled {
		return
	}
	for i := 0; i < 64; i++ {
		if framePool.Get().(*[]byte) == bp {
			return
		}
	}
	t.Fatal("the refused frame did not go back to the frame pool")
}

// A response whose frame arrives corrupt (its length prefix mangled beyond
// MaxFrame) fails the session with a transport fault, which IsTransient
// accepts, not with ErrFrameTooBig; the next call redials and succeeds.
func TestCorruptResponseIsTransient(t *testing.T) {
	inj := &frameCheckInjector{}
	inj.corrupt.Store(1)
	e := NewEngine(WithInjector(inj))
	e.Register("echo", func(_ context.Context, in []byte) ([]byte, error) { return in, nil })
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
	_, err = ep.Call(context.Background(), "echo", []byte("x"))
	if err == nil {
		t.Fatal("a call whose response arrived corrupt succeeded")
	}
	if errors.Is(err, ErrFrameTooBig) || !IsTransient(err) {
		t.Fatalf("corrupt response: err = %v (IsTransient %v), want a transient transport fault", err, IsTransient(err))
	}
	if out, err := ep.Call(context.Background(), "echo", []byte("y")); err != nil || string(out) != "y" {
		t.Fatalf("call after the corrupt frame = %q, %v; want a redialed echo", out, err)
	}
}
