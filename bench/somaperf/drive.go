package main

import (
	"fmt"
	"sync"
	"time"
)

// The paced phase. Two load goroutines — one publisher, one observer — each
// on its own connection, both open loop: operations are issued on a fixed
// schedule of 1 ms ticks whether or not the service keeps up, and every
// latency is taken from the instant the operation was due, so a stall is
// charged to everything queued behind it. A third goroutine only reads
// /proc. The phase is a discarded cold stretch followed by the measured
// window, cut into equal slices.

// phase lays the paced phase out on the clock.
type phase struct {
	start      time.Time // tick 0 is due here
	coldTicks  int       // driven and discarded before the window
	sliceTicks int       // ticks per measured slice
	slices     int
}

func (ph phase) totalTicks() int { return ph.coldTicks + ph.sliceTicks*ph.slices }

func (ph phase) due(tick int) time.Time {
	return ph.start.Add(time.Duration(tick) * time.Millisecond)
}

// sliceOf maps a due tick to its measured slice; -1 is the cold stretch.
func (ph phase) sliceOf(tick int) int {
	if tick < ph.coldTicks {
		return -1
	}
	return (tick - ph.coldTicks) / ph.sliceTicks
}

// wait sleeps until the tick is due. When it had to sleep it returns how
// late the wake-up was — the generator's own lateness; arriving already
// late (the previous operation was still blocked on the service) is not the
// generator's doing, is charged to that operation's latency instead, and
// returns -1.
func (ph phase) wait(tick int) time.Duration {
	due := ph.due(tick)
	d := time.Until(due)
	if d <= 0 {
		return -1
	}
	time.Sleep(d)
	return time.Since(due)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples holds one timing's measurements per slice.
type samples [][]float64

func (s samples) add(slice int, v float64) {
	if slice >= 0 && slice < len(s) {
		s[slice] = append(s[slice], v)
	}
}

// windowResult is everything one paced phase measured.
type windowResult struct {
	ack, fresh, read samples
	lateMs           []float64 // publisher wake-up lateness per slept tick, whole window
	lateTicks        int       // ticks woken more than lateLimit late
	ticks            int       // publisher ticks in the window
	cpuUsPerPub      []float64 // per slice
	rssMB            []float64 // per 250 ms sample
	backlogEnd       int64
	markers          int   // markers issued in the phase
	shed             int   // window markers the push channel dropped (and counted)
	windowPubs       int64 // publishes acknowledged inside the measured window
}

// merge appends another fleet's window to this one.
func (r *windowResult) merge(o *windowResult) {
	r.ack = append(r.ack, o.ack...)
	r.fresh = append(r.fresh, o.fresh...)
	r.read = append(r.read, o.read...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.lateTicks += o.lateTicks
	r.ticks += o.ticks
	r.cpuUsPerPub = append(r.cpuUsPerPub, o.cpuUsPerPub...)
	r.rssMB = append(r.rssMB, o.rssMB...)
	r.backlogEnd += o.backlogEnd
	r.markers += o.markers
	r.shed += o.shed
	r.windowPubs += o.windowPubs
}

// lateLimit is the wake-up lateness beyond which a tick counts as late.
const lateLimit = 5 * time.Millisecond

// runWindow drives one paced phase against a ready session.
func (s *session) runWindow(ph phase) (*windowResult, error) {
	res := &windowResult{
		ack: make(samples, ph.slices), fresh: make(samples, ph.slices), read: make(samples, ph.slices),
	}
	ph.start = time.Now().Add(20 * time.Millisecond)
	total := ph.totalTicks()
	preAcked := s.sink.acked()

	var wg sync.WaitGroup
	var pubErr, obsErr, sampErr error

	// Publisher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sync_ := !s.w.batched
		for tick := 0; tick < total; tick++ {
			if s.st.peekDue() > tick {
				continue
			}
			late := ph.wait(tick)
			sl := ph.sliceOf(tick)
			if sl >= 0 {
				res.ticks++
				if late >= 0 {
					res.lateMs = append(res.lateMs, ms(late))
				}
				if late > lateLimit {
					res.lateTicks++
				}
			}
			due := ph.due(tick)
			for s.st.peekDue() <= tick {
				next := s.st.next()
				if err := s.sink.publish(&next); err != nil {
					s.tly.fail("publish: %v", err)
					pubErr = err
					return
				}
				s.tly.ok()
				if sync_ {
					res.ack.add(sl, ms(time.Since(due)))
				}
			}
		}
	}()

	// Observer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tick := 0; tick < total; tick++ {
			isMarker := tick%markerEvery == 0
			isRead := tick%s.w.readEvery == s.w.readEvery/2
			if !isMarker && !isRead {
				continue
			}
			ph.wait(tick)
			due := ph.due(tick)
			sl := ph.sliceOf(tick)
			if isMarker {
				res.markers++
				seq, err := s.publishMarker()
				if err != nil {
					s.tly.fail("marker publish: %v", err)
					obsErr = err
					return
				}
				s.tly.ok()
				if s.w.batched {
					res.ack.add(sl, ms(time.Since(due)))
				}
				if s.w.pollsFresh() {
					if err := s.awaitVisible(seq); err != nil {
						s.tly.fail("%v", err)
					} else {
						s.tly.ok()
						res.fresh.add(sl, ms(time.Since(due)))
					}
				}
			}
			if isRead {
				primary, err := s.read()
				if err != nil {
					s.tly.fail("read: %v", err)
				} else {
					s.tly.ok()
					if primary {
						res.read.add(sl, ms(time.Since(due)))
					}
				}
			}
		}
	}()

	// Sampler: CPU at slice boundaries, RSS every 250 ms.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const rssEvery = 250 // ticks
		var cpu0, acked0, ackedStart int64
		nextRSS, nextCPU := ph.coldTicks, ph.coldTicks
		for nextCPU <= total {
			tick := nextCPU
			if nextRSS < tick {
				tick = nextRSS
			}
			ph.wait(tick)
			if tick == nextRSS {
				nextRSS += rssEvery
				if tick < total {
					rss, err := rssBytes(s.f.pids)
					if err != nil {
						sampErr = err
						return
					}
					res.rssMB = append(res.rssMB, float64(rss)/(1<<20))
				}
			}
			if tick != nextCPU {
				continue
			}
			nextCPU += ph.sliceTicks
			cpu, err := cpuNanos(s.f.pids)
			if err != nil {
				sampErr = err
				return
			}
			acked := s.sink.acked() + s.markerAcks.Load()
			if tick == ph.coldTicks {
				ackedStart = acked
			} else if n := acked - acked0; n > 0 {
				res.cpuUsPerPub = append(res.cpuUsPerPub, float64(cpu-cpu0)/1e3/float64(n))
			}
			cpu0, acked0 = cpu, acked
		}
		res.windowPubs = acked0 - ackedStart
		// What was due but unacknowledged at the last tick, beyond what the
		// connection may legitimately still hold in flight, is backlog: the
		// offered rate was not sustained.
		due := int64(s.w.rate) * int64(total) / 1000
		if out := due - (s.sink.acked() - preAcked) - s.inFlightBudget(); out > 0 {
			res.backlogEnd = out
		}
	}()

	wg.Wait()
	for _, err := range []error{pubErr, obsErr, sampErr} {
		if err != nil {
			return res, err
		}
	}
	if err := s.sink.flush(); err != nil {
		s.tly.fail("final flush: %v", err)
		return res, fmt.Errorf("final flush: %w", err)
	}
	s.collectFresh(ph, res)
	return res, nil
}

// inFlightBudget is how many publishes may be issued yet unacknowledged on
// a healthy connection: one default coalescer flush (512 leaves) pending
// and one on the wire per member, or two synchronous calls.
func (s *session) inFlightBudget() int64 {
	if !s.w.batched {
		return 2
	}
	return 2 * 512 * int64(s.w.fleet.somads)
}

// collectFresh turns the receive-only consumer's arrival times into
// freshness samples: marker due → delivery.
func (s *session) collectFresh(ph phase, res *windowResult) {
	if s.w.pollsFresh() {
		return
	}
	first := s.markerSeq - res.markers
	// The last markers may still be in flight when the schedule ends.
	deadline := time.Now().Add(freshTimeout)
	for {
		if _, ok := s.rx.arrivedAt(s.markerSeq - 1); ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for k := ph.coldTicks / markerEvery; k < res.markers; k++ { // the cold stretch is discarded
		tick := k * markerEvery
		at, ok := s.rx.arrivedAt(first + k)
		if !ok {
			// Shed by the push channel's drop-don't-block queues. That is
			// designed behaviour with in-stream accounting, and the oracle
			// checks the accounting is exact (received + dropped == sent):
			// a marker that vanished uncounted fails there.
			res.shed++
			continue
		}
		s.tly.ok()
		res.fresh.add(ph.sliceOf(tick), ms(at.Sub(ph.due(tick))))
	}
}
