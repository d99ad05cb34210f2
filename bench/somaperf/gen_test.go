package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/hpcobs/gosoma/internal/conduit"
)

// payload is the bytes the service would receive for a publish.
func payload(p pub) []byte {
	if p.tree != nil {
		return p.tree.EncodeBinary()
	}
	return p.enc
}

// drawn is how many publishes of each workload the generator tests look at:
// a little over two seconds of every schedule but firehose's.
func drawn(w *workload) int {
	if n := 2*w.rate + 7; n < 5000 {
		return n
	}
	return 5000
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.newStream(11), w.newStream(11), w.newStream(12)
		differs := false
		for i := 0; i < drawn(w); i++ {
			pa, pb, pc := a.next(), b.next(), c.next()
			if pa.due != pb.due || pa.ns != pb.ns || pa.path != pb.path || !bytes.Equal(payload(pa), payload(pb)) {
				t.Fatalf("%s: publish %d differs between two streams of one seed", w.name, i)
			}
			if pa.due != pc.due {
				t.Fatalf("%s: publish %d: the schedule depends on the seed (due %d vs %d)", w.name, i, pa.due, pc.due)
			}
			if !bytes.Equal(payload(pa), payload(pc)) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 11 and 12 generate identical payloads", w.name)
		}
	}
}

func TestScheduleIsOnTheTickAndAtRate(t *testing.T) {
	for _, w := range workloads {
		st := w.newStream(1)
		st.beginPaced()
		last, inFirstSecond := 0, 0
		for i := 0; i < 2*w.rate && i < 250000; i++ {
			peek := st.peekDue()
			p := st.next()
			if p.due != peek {
				t.Fatalf("%s: publish %d: peekDue said tick %d, next said %d", w.name, i, peek, p.due)
			}
			// Due times are whole ticks by construction (an int count of
			// them); they must also never run backwards.
			if p.due < last {
				t.Fatalf("%s: publish %d due at tick %d, after one due at %d", w.name, i, p.due, last)
			}
			last = p.due
			if p.due < 1000 {
				inFirstSecond++
			}
		}
		if inFirstSecond != w.rate {
			t.Errorf("%s: %d publishes due in the first second, want the offered rate %d", w.name, inFirstSecond, w.rate)
		}
	}
}

// seriesKeyOf derives a leaf's rollup series key the way the service does:
// the last segment that parses as a plausible timestamp folds out.
func seriesKeyOf(path string) string {
	segs := strings.Split(path, "/")
	for i := len(segs) - 1; i >= 0; i-- {
		if v, err := strconv.ParseFloat(segs[i], 64); err == nil && v >= 0 && v <= 1e15 {
			return strings.Join(append(segs[:i:i], segs[i+1:]...), "/")
		}
	}
	return path
}

func TestMonitorsStaysUnderSeriesCap(t *testing.T) {
	const seriesCap = 8192 // core's defaultMaxSeries
	st := newMonStream(1)
	keys := map[string]bool{}
	for i := 0; i < 3*monRate; i++ {
		p := st.next()
		if p.ns != "hardware" {
			continue
		}
		p.tree.Walk(func(path string, leaf *conduit.Node) bool {
			if k := leaf.Kind(); k == conduit.KindFloat || k == conduit.KindInt {
				keys[seriesKeyOf(path)] = true
			}
			return true
		})
	}
	w := workloadByName("monitors")
	for seq := 0; seq < w.rotate; seq++ {
		keys[markerPath(seq, w.rotate)] = true
	}
	if len(keys) != monSeries+w.rotate {
		t.Errorf("monitors feeds %d hardware series, want %d node series + %d marker series", len(keys), monSeries, w.rotate)
	}
	if len(keys) >= seriesCap {
		t.Errorf("monitors feeds %d series, at or over the rollup store's cap of %d", len(keys), seriesCap)
	}
	if w.preload%monRate != 0 {
		t.Errorf("monitors preload %d is not a whole number of schedule seconds (%d publishes each)", w.preload, monRate)
	}
}

func TestQuartilesMatchTheContract(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartilesExclusive(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; Python's exclusive method gives 2.75, 8.25", q1, q3)
	}
}

func TestSpanNestingAndSelfTime(t *testing.T) {
	tr := &tracer{on: true}
	a := tr.begin("outer")
	b := tr.begin("inner")
	tr.end(b)
	tr.end(a)
	tr.spans[0].Start, tr.spans[0].End = 0, 100
	tr.spans[1].Start, tr.spans[1].End = 10, 40
	if err := checkNesting(tr.spans); err != nil {
		t.Fatal(err)
	}
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("parents %d, %d; want 0, -1", tr.spans[1].Parent, tr.spans[0].Parent)
	}
	self, _ := selfTimes(tr.spans)
	if self["outer"] != 70 || self["inner"] != 30 {
		t.Errorf("self times outer %d inner %d, want 70 and 30", self["outer"], self["inner"])
	}
	tr.spans[1].End = 120
	if checkNesting(tr.spans) == nil {
		t.Error("a child outliving its parent passed the nesting check")
	}
}
