package zmq

import (
	"sync"
	"testing"
	"time"
)

func TestQueuePushPullOrder(t *testing.T) {
	q := NewQueue("agent_scheduling_queue")
	for i := 0; i < 5; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pull()
		if !ok || v.(int) != i {
			t.Fatalf("pull %d = %v,%v", i, v, ok)
		}
	}
}

func TestQueueBlockingPull(t *testing.T) {
	q := NewQueue("q")
	got := make(chan interface{}, 1)
	go func() {
		v, _ := q.Pull()
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push("wake")
	select {
	case v := <-got:
		if v != "wake" {
			t.Fatalf("got %v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Pull never woke")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue("q")
	q.Push(1)
	q.Push(2)
	q.Close()
	if err := q.Push(3); err != ErrClosed {
		t.Fatalf("push after close = %v", err)
	}
	if v, ok := q.Pull(); !ok || v.(int) != 1 {
		t.Fatal("close should not drop queued messages")
	}
	if v, ok := q.Pull(); !ok || v.(int) != 2 {
		t.Fatal("second message lost")
	}
	if _, ok := q.Pull(); ok {
		t.Fatal("drained closed queue should report !ok")
	}
}

func TestQueueTryPull(t *testing.T) {
	q := NewQueue("q")
	if _, ok := q.TryPull(); ok {
		t.Fatal("TryPull on empty queue succeeded")
	}
	q.Push("x")
	if v, ok := q.TryPull(); !ok || v != "x" {
		t.Fatalf("TryPull = %v,%v", v, ok)
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue("q")
	const producers, perProducer = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(p*perProducer + i)
			}
		}(p)
	}
	seen := make(map[int]bool)
	var mu sync.Mutex
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := q.Pull()
				if !ok {
					return
				}
				mu.Lock()
				if seen[v.(int)] {
					t.Errorf("duplicate delivery of %v", v)
				}
				seen[v.(int)] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	q.Close() // pullers drain what is queued before they see the close
	cwg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("delivered %d of %d", len(seen), producers*perProducer)
	}
}

func TestPubSubPrefixMatch(t *testing.T) {
	b := NewPubSub()
	defer b.Close()
	all, cancelAll := b.Subscribe("")
	tasks, cancelTasks := b.Subscribe("task.")
	defer cancelAll()
	defer cancelTasks()

	b.Publish("task.000001", "scheduled")
	b.Publish("pilot.0000", "active")

	m := <-tasks
	if m.Topic != "task.000001" || m.Payload != "scheduled" {
		t.Fatalf("tasks got %+v", m)
	}
	select {
	case m := <-tasks:
		t.Fatalf("tasks received non-matching topic %q", m.Topic)
	default:
	}
	if m := <-all; m.Topic != "task.000001" {
		t.Fatalf("all sub first msg = %+v", m)
	}
	if m := <-all; m.Topic != "pilot.0000" {
		t.Fatalf("all sub second msg = %+v", m)
	}
}

func TestPubSubCancelClosesChannel(t *testing.T) {
	b := NewPubSub()
	defer b.Close()
	ch, cancel := b.Subscribe("x")
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel should be closed after cancel")
	}
	cancel() // double cancel must be safe
	if err := b.Publish("x1", nil); err != nil {
		t.Fatal(err)
	}
}

func TestPubSubHighWaterDrops(t *testing.T) {
	// A subscriber that does not read keeps the first DefaultHighWater
	// messages; the rest drop rather than block the publisher.
	b := NewPubSub()
	defer b.Close()
	ch, cancel := b.Subscribe("")
	for i := 0; i < DefaultHighWater+3; i++ {
		b.Publish("t", i)
	}
	cancel()
	n := 0
	for m := range ch {
		if m.Payload.(int) != n {
			t.Fatalf("message %d = %+v", n, m)
		}
		n++
	}
	if n != DefaultHighWater {
		t.Fatalf("received %d, want the high-water %d", n, DefaultHighWater)
	}
}

func TestPubSubClose(t *testing.T) {
	b := NewPubSub()
	ch, _ := b.Subscribe("")
	b.Close()
	if _, ok := <-ch; ok {
		t.Fatal("subscriber channel should close on bus close")
	}
	if err := b.Publish("t", nil); err != ErrClosed {
		t.Fatalf("publish after close = %v", err)
	}
	b.Close() // idempotent
	ch2, _ := b.Subscribe("")
	if _, ok := <-ch2; ok {
		t.Fatal("subscribe after close should return closed channel")
	}
}

func TestPubSubConcurrentPublish(t *testing.T) {
	b := NewPubSub()
	defer b.Close()
	ch, cancel := b.Subscribe("task.")
	defer cancel()
	var wg sync.WaitGroup
	const n = 500
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Publish("task.x", 1)
		}()
	}
	wg.Wait()
	count := 0
	for {
		select {
		case <-ch:
			count++
		default:
			if count != n {
				t.Fatalf("received %d of %d", count, n)
			}
			return
		}
	}
}
