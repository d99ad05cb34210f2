package mercury

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// Many concurrent calls on ONE TCP endpoint, each with a unique payload:
// every response must come back to the caller that issued it. Run under
// -race this also exercises the writer goroutine's gathered writes.
func TestPipelinedResponsesMatchRequestIDs(t *testing.T) {
	e := NewEngine()
	e.Register("echo", func(_ context.Context, in []byte) ([]byte, error) {
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

	const workers = 16
	const callsEach = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				want := fmt.Sprintf("w%d-c%d", wkr, i)
				out, err := ep.Call(context.Background(), "echo", []byte(want))
				if err != nil {
					errCh <- fmt.Errorf("worker %d call %d: %w", wkr, i, err)
					return
				}
				if string(out) != want {
					errCh <- fmt.Errorf("worker %d call %d: response %q crossed wires (want %q)", wkr, i, out, want)
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// A slow request must not block a fast one pipelined behind it on the same
// connection, and both responses must reach their own callers despite
// completing out of request order.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	e := NewEngine()
	release := make(chan struct{})
	e.Register("slow", func(ctx context.Context, in []byte) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return []byte("slow-done"), nil
	})
	e.Register("fast", func(_ context.Context, in []byte) ([]byte, error) {
		return []byte("fast-done"), nil
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

	slowRes := make(chan string, 1)
	go func() {
		out, err := ep.Call(context.Background(), "slow", nil)
		if err != nil {
			slowRes <- "error: " + err.Error()
			return
		}
		slowRes <- string(out)
	}()

	// The fast call completes while the slow one is still parked server-side
	// on the same connection.
	deadline := time.After(5 * time.Second)
	fastOK := false
	for !fastOK {
		select {
		case <-deadline:
			t.Fatal("fast call never completed while slow call in flight")
		default:
		}
		out, err := ep.Call(context.Background(), "fast", nil)
		if err != nil {
			t.Fatalf("fast call: %v", err)
		}
		if string(out) == "fast-done" {
			fastOK = true
		}
	}
	close(release)
	select {
	case got := <-slowRes:
		if got != "slow-done" {
			t.Fatalf("slow call returned %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow call never completed after release")
	}
}

// A response the reader delivers leaves the pending table as it is taken, so
// a session failure racing the delivery can never close the channel the
// reader is sending on: that send would panic the client process.
func TestDeliveredResponseLeavesPendingTable(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	ep := &Endpoint{}
	s := newTCPSession(client, false)
	go ep.readLoop(s)
	id, respCh, err := s.register()
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, 9+2)
	frame = binary.LittleEndian.AppendUint64(frame, id)
	frame = append(frame, statusOK, 'o', 'k')
	if _, err := server.Write(frame); err != nil {
		t.Fatal(err)
	}
	if resp := <-respCh; string(resp.payload) != "ok" {
		t.Fatalf("response payload %q, want ok", resp.payload)
	}
	s.mu.Lock()
	pending := len(s.pend)
	s.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d delivered responses still pending; a session failure would close their channels", pending)
	}
	s.fail(errors.New("severed"))
	s.unregister(id)
}
