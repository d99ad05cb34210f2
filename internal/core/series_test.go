package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
)

// observe folds one sample into its series as ingest folds each leaf,
// creating the series on first sight (up to the cap; it reports false for a
// sample dropped at the cap).
func (st *seriesStore) observe(key []byte, t, v float64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	se := st.lookup(key)
	if se == nil {
		telSeriesDropped.Inc()
		return false
	}
	grew := se.fold(t, v)
	st.bytes += grew
	telSeriesBytes.Add(grew)
	return true
}

// fixedRing is the rollup ring as it shipped before rings grew with their
// data: every slot allocated and initialised up front. It is the oracle the
// growable bucketRing must answer identically to at every step.
type fixedRing struct {
	width int64
	slots []bucket
}

func newFixedRing(width int64, cap_ int) *fixedRing {
	slots := make([]bucket, cap_)
	for i := range slots {
		slots[i].start = -1
	}
	return &fixedRing{width: width, slots: slots}
}

func (fr *fixedRing) add(t, v float64) {
	if !(t >= 0 && t <= maxSeriesTime) { // also rejects NaN
		return
	}
	start := int64(math.Floor(t/float64(fr.width))) * fr.width
	n := int64(len(fr.slots))
	slot := &fr.slots[int(((start/fr.width)%n+n)%n)]
	switch {
	case slot.start == start:
		if v < slot.min {
			slot.min = v
		}
		if v > slot.max {
			slot.max = v
		}
		slot.sum += v
		slot.count++
	case slot.start < start:
		*slot = bucket{start: start, min: v, max: v, sum: v, count: 1}
	default:
	}
}

func (fr *fixedRing) collect(after float64) []SeriesBucket {
	out := make([]SeriesBucket, 0, 64)
	for i := range fr.slots {
		b := &fr.slots[i]
		if b.start < 0 || float64(b.start) < after || b.count == 0 {
			continue
		}
		out = append(out, SeriesBucket{
			Start: float64(b.start), Min: b.min, Max: b.max,
			Mean: b.sum / float64(b.count), Count: b.count,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// window is the alert evaluator's aggregate as it was computed over
// collect(from) — every slot walked, sorted, then folded oldest first — except
// that it sums each bucket's sum, as bucketRing.window does, where the old
// code summed mean × count.
func (fr *fixedRing) window(from, to float64) (SeriesBucket, bool) {
	var live []bucket
	for _, b := range fr.slots {
		if b.start < 0 || float64(b.start) < from || float64(b.start) > to {
			continue
		}
		live = append(live, b)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].start < live[j].start })
	agg := SeriesBucket{Start: from, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, b := range live {
		agg.Min = math.Min(agg.Min, b.min)
		agg.Max = math.Max(agg.Max, b.max)
		sum += b.sum
		agg.Count += b.count
	}
	if agg.Count == 0 {
		return SeriesBucket{}, false
	}
	agg.Mean = sum / float64(agg.Count)
	return agg, true
}

// bucketBits renders buckets by their float bit patterns, so "identical"
// means byte-identical (and a NaN compares equal to itself).
func bucketBits(bs ...SeriesBucket) string {
	out := make([]byte, 0, 40*len(bs))
	for _, b := range bs {
		for _, f := range []float64{b.Start, b.Min, b.Max, b.Mean} {
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(f))
		}
		out = binary.BigEndian.AppendUint64(out, uint64(b.Count))
	}
	return string(out)
}

// ringPair feeds one sample stream to a growable ring and its fixed oracle
// and compares every answer the service reads from a ring.
type ringPair struct {
	t   testing.TB
	br  bucketRing
	ref *fixedRing
}

func newRingPair(t testing.TB, width int64) *ringPair {
	return &ringPair{t: t, br: bucketRing{width: width}, ref: newFixedRing(width, bucketCap)}
}

func (p *ringPair) add(t, v float64) {
	p.t.Helper()
	p.br.add(t, v)
	p.ref.add(t, v)
	if n := len(p.br.slots); n > bucketCap || n&(n-1) != 0 {
		p.t.Fatalf("after add(%g): %d slots, want a power of two <= %d", t, n, bucketCap)
	}
}

func (p *ringPair) check(what string, after, from, to float64) {
	p.t.Helper()
	if got, want := p.br.collect(after), p.ref.collect(after); bucketBits(got...) != bucketBits(want...) {
		p.t.Fatalf("%s: collect(%g) with %d slots\n got %+v\nwant %+v", what, after, len(p.br.slots), got, want)
	}
	got, gotOK := p.br.window(from, to)
	want, wantOK := p.ref.window(from, to)
	if gotOK != wantOK || bucketBits(got) != bucketBits(want) {
		p.t.Fatalf("%s: window(%g, %g) with %d slots\n got %+v %v\nwant %+v %v",
			what, from, to, len(p.br.slots), got, gotOK, want, wantOK)
	}
}

// hostileTimes cannot be sample times; a ring must ignore them.
var hostileTimes = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.001, -1e300,
	maxSeriesTime * 1.0000001, 1e30, math.MaxFloat64,
}

func TestBucketRingMatchesFixedRing(t *testing.T) {
	for _, width := range []int64{1, 10} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := newRingPair(t, width)
			w := float64(width)
			cur := rng.Float64() * 1000
			// Every third seed stays near the present, so the ring stays
			// small and wraps at sizes below the bound.
			late, calm := 700.0, seed%3 == 0
			if calm {
				late = 6
			}
			for step := 0; step < 4000; step++ {
				ts := cur
				k := rng.Intn(20)
				if calm && (k == 16 || k == 17) {
					k = 0
				}
				switch {
				case k < 10: // in order, sometimes skipping windows
					cur += rng.Float64() * 3 * w
					ts = cur
				case k < 13: // same window again
				case k < 16: // late, possibly behind what the ring still holds
					ts = cur - rng.Float64()*late*w
				case k < 17: // far ahead: more than a ring's worth of windows
					cur += (float64(bucketCap) + rng.Float64()*3000) * w
					ts = cur
				case k < 18: // exactly one generation ahead: evicts in the full ring too
					cur += float64(bucketCap) * w
					ts = cur
				default:
					ts = hostileTimes[rng.Intn(len(hostileTimes))]
				}
				p.add(ts, rng.NormFloat64()*100)
				what := fmt.Sprintf("width %d seed %d step %d", width, seed, step)
				span := rng.Float64() * 40 * w
				if rng.Intn(8) == 0 {
					span = rng.Float64() * 2000 * w // wider than the ring: the walk
				}
				to := cur + (rng.Float64()-0.7)*10*w
				p.check(what, cur-rng.Float64()*600*w, to-span, to)
			}
			p.check("whole ring", 0, math.Inf(-1), math.Inf(1))
			p.check("unordered bounds", math.NaN(), math.NaN(), math.NaN())
			p.check("empty range", cur+1, cur, cur-5)
		}
	}
}

// FuzzBucketRing drives the same pair from fuzzer bytes: four bytes per
// sample — what kind of step, its size, the value.
func FuzzBucketRing(f *testing.F) {
	f.Add([]byte{0, 64, 0, 10, 0, 64, 0, 20, 4, 0, 1, 30, 5, 200, 0, 40, 7, 0, 0, 50})
	f.Add([]byte{5, 64, 0, 1, 4, 255, 255, 2, 6, 3, 0, 3, 0, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, width := range []int64{1, 10} {
			p := newRingPair(t, width)
			w := float64(width)
			cur := 0.0
			for i := 0; i+4 <= len(data); i += 4 {
				mag := float64(binary.LittleEndian.Uint16(data[i+1:]))
				ts := cur
				switch data[i] % 8 {
				case 0, 1, 2, 3: // in order: 0 .. 16 windows ahead
					cur += mag / 4096 * w
					ts = cur
				case 4: // late by up to 1024 windows
					ts = cur - mag/64*w
				case 5: // ahead by up to 8192 windows
					cur += mag / 8 * w
					ts = cur
				case 6:
					ts = hostileTimes[int(mag)%len(hostileTimes)]
				case 7: // same time again
				}
				p.add(ts, float64(int8(data[i+3])))
				p.check(fmt.Sprintf("width %d sample %d", width, i/4), cur-mag/32*w, cur-float64(data[i+3])*w, cur)
			}
			p.check("whole ring", 0, 0, maxSeriesTime)
		}
	})
}

func TestRawRingGrowsThenWraps(t *testing.T) {
	st := newSeriesStore(0)
	key := "PROC/cn01/CPU Util"
	push := func(from, to int) {
		for i := from; i < to; i++ {
			st.observe([]byte(key), float64(i), float64(i)*2)
		}
	}
	want := func(what string, after float64, first, last int) {
		t.Helper()
		pts, _, ok := st.query(key, LevelRaw, after)
		if !ok || len(pts) != last-first+1 {
			t.Fatalf("%s: %d points (ok=%v), want %d", what, len(pts), ok, last-first+1)
		}
		for i, p := range pts {
			if p.Time != float64(first+i) || p.Value != 2*p.Time {
				t.Fatalf("%s: point %d = %+v, want t=%d", what, i, p, first+i)
			}
		}
	}
	push(0, 300)
	want("before the ring is full", 0, 0, 299)
	want("before the ring is full, after=250", 250, 250, 299)
	push(300, rawCap)
	want("exactly full", 0, 0, rawCap-1)
	push(rawCap, rawCap+1)
	want("first overwrite", 0, 1, rawCap)
	push(rawCap+1, rawCap+100)
	want("wrapped", 0, 100, rawCap+99)
	want("wrapped, after=400", 400, 400, rawCap+99)
	push(rawCap+100, 3*rawCap+7)
	want("wrapped twice", 0, 2*rawCap+7, 3*rawCap+6)
}

// FuzzRawRing checks rawRing against a slice that keeps the newest rawCap
// points, three bytes per step: how many points to push (a byte of 128 or
// more pushes eight times its excess, so a few steps wrap the ring), a time
// offset, and the after bound of the read that follows (255 reads with NaN).
// Point times are not monotonic, so the after filter picks from the whole
// ring, inline tail included.
func FuzzRawRing(f *testing.F) {
	f.Add([]byte{3, 0, 0})                                    // a partial tail
	f.Add([]byte{200, 1, 0, 200, 2, 100, 3, 5, 200})          // full, then wrapped with a tail
	f.Add([]byte{255, 9, 40, 1, 0, 0, 2, 3, 255, 131, 4, 17}) // many wraps, NaN after
	f.Fuzz(func(t *testing.T, data []byte) {
		var r rawRing
		var ref []SeriesPoint
		var grew int64
		seq := 0
		for i := 0; i+3 <= len(data); i += 3 {
			n := int(data[i])
			if n >= 128 {
				n = (n - 128) * 8
			}
			for k := 0; k < n; k++ {
				p := SeriesPoint{Time: float64((seq*37 + int(data[i+1])) % 256), Value: float64(seq)}
				grew += r.push(p)
				if ref = append(ref, p); len(ref) > rawCap {
					ref = ref[len(ref)-rawCap:]
				}
				seq++
			}
			after := float64(data[i+2])
			if data[i+2] == 255 {
				after = math.NaN()
			}
			var want []SeriesPoint
			for _, p := range ref {
				if p.Time >= after {
					want = append(want, p)
				}
			}
			got := r.since(after)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("step %d (%d pushed, after %g): since returned %d points, the newest-%d slice %d\n got %v\nwant %v",
					i/3, seq, after, len(got), rawCap, len(want), got, want)
			}
			if len(r.pts) > rawCap || cap(r.pts) > rawCap || r.n >= rawTail {
				t.Fatalf("step %d: pts len %d cap %d, tail %d", i/3, len(r.pts), cap(r.pts), r.n)
			}
			if grew != int64(cap(r.pts))*pointBytes {
				t.Fatalf("step %d: push reported %d B of growth, pts holds %d B", i/3, grew, cap(r.pts)*pointBytes)
			}
		}
	})
}

func TestFullSeriesCostsWhatFixedRingsDid(t *testing.T) {
	// A series fed until every ring is at capacity holds exactly the arrays
	// the fixed layout allocated at first sample — 512 × 16 B + 2 × 512 × 40 B
	// — and feeding it further never grows it.
	const fixedBytes = rawCap*pointBytes + 2*bucketCap*bucketBytes
	if unsafe.Sizeof(SeriesPoint{}) != pointBytes || unsafe.Sizeof(bucket{}) != bucketBytes {
		t.Fatalf("element sizes are %d and %d, accounted as %d and %d",
			unsafe.Sizeof(SeriesPoint{}), unsafe.Sizeof(bucket{}), pointBytes, bucketBytes)
	}
	st := newSeriesStore(0)
	for i := 0; i < 3*10*bucketCap; i++ {
		st.observe([]byte("k"), float64(i), 1)
		if _, b := st.occupancy(); b > fixedBytes {
			t.Fatalf("after %d samples the series holds %d B, more than the fixed rings' %d", i+1, b, fixedBytes)
		}
	}
	se := st.m["k"]
	if cap(se.raw.pts) != rawCap || len(se.b1.slots) != bucketCap || len(se.b10.slots) != bucketCap {
		t.Fatalf("full rings: raw cap %d, 1s %d slots, 10s %d slots; want %d, %d, %d",
			cap(se.raw.pts), len(se.b1.slots), len(se.b10.slots), rawCap, bucketCap, bucketCap)
	}
	if n, b := st.occupancy(); n != 1 || b != fixedBytes || se.bytes() != fixedBytes {
		t.Fatalf("occupancy = %d series, %d B (series says %d), want 1 series, %d B", n, b, se.bytes(), fixedBytes)
	}
	st.reset()
	if n, b := st.occupancy(); n != 0 || b != 0 {
		t.Fatalf("occupancy after reset = %d series, %d B", n, b)
	}
}

func TestSeriesFootprintFollowsData(t *testing.T) {
	// The firehose shape: the default cap's worth of series, each thirty
	// samples over twelve seconds old. Fixed rings charged every one of them
	// 48 KiB at first sample; a series now costs what it holds.
	const nSeries, perSeries, budget = defaultMaxSeries, 30, 4 << 10
	keys := make([][]byte, nSeries)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("PROC/cn%04d/CPU Util", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := newSeriesStore(0)
	for s := 0; s < perSeries; s++ {
		for _, k := range keys {
			if !st.observe(k, float64(s)*12/perSeries, float64(s)) {
				t.Fatal("sample dropped below the series cap")
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n, bytes := st.occupancy()
	if n != nSeries {
		t.Fatalf("series = %d, want %d", n, nSeries)
	}
	if per := bytes / nSeries; per > budget {
		t.Fatalf("series_bytes: %d B per series, budget %d", per, budget)
	}
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / nSeries; per > budget {
		t.Fatalf("heap: %d B per series, budget %d", per, budget)
	}
	runtime.KeepAlive(st)
}

func TestStatsReportOccupancy(t *testing.T) {
	svc, addr := newTestService(t, ServiceConfig{})
	c, err := Connect(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	countBefore, bytesBefore := telSeriesCount.Value(), telSeriesBytes.Value()
	for i := 0; i < 7; i++ {
		n := conduit.NewNode()
		for m := 0; m <= i; m++ { // growing frames, one more series each
			n.SetFloat(fmt.Sprintf("PROC/cn01/%d.5/metric%d", i, m), float64(i))
		}
		if err := c.Publish(NSHardware, n); err != nil {
			t.Fatal(err)
		}
	}
	var ringBytes int64
	st := svc.instances[NSHardware].rollup
	for _, se := range st.m {
		ringBytes += se.bytes()
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	hw := stats[NSHardware]
	if hw.Series != 7 || hw.SeriesCap != defaultMaxSeries || hw.SeriesBytes != ringBytes || ringBytes == 0 {
		t.Fatalf("hardware stats = %+v, want 7/%d series holding %d B", hw, defaultMaxSeries, ringBytes)
	}
	if wf := stats[NSWorkflow]; wf.Series != 0 || wf.SeriesCap != defaultMaxSeries || wf.SeriesBytes != 0 {
		t.Fatalf("idle workflow stats = %+v", wf)
	}
	if dc, db := telSeriesCount.Value()-countBefore, telSeriesBytes.Value()-bytesBefore; dc != 7 || db != ringBytes {
		t.Fatalf("gauges moved by %d series, %d B; want 7, %d", dc, db, ringBytes)
	}
	if err := svc.ResetNamespace(NSHardware); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if hw := stats[NSHardware]; hw.Series != 0 || hw.SeriesBytes != 0 {
		t.Fatalf("hardware stats after reset = %+v", hw)
	}
	if dc, db := telSeriesCount.Value()-countBefore, telSeriesBytes.Value()-bytesBefore; dc != 0 || db != 0 {
		t.Fatalf("gauges after reset still hold %d series, %d B", dc, db)
	}

	// A server from before the history ring was deleted still sends
	// history_bytes: the client ignores the field it no longer knows and reads
	// the rest of the row.
	old := mercury.NewEngine()
	defer old.Close()
	old.Register(RPCStats, func(context.Context, []byte) ([]byte, error) {
		resp := conduit.NewNode()
		resp.SetInt("hardware/publishes", 7)
		resp.SetInt("hardware/series", 3)
		resp.SetInt("hardware/series_cap", 8192)
		resp.SetInt("hardware/series_bytes", 1536)
		resp.SetInt("hardware/history_bytes", 420)
		return resp.EncodeBinary(), nil
	})
	oldAddr, err := old.Listen("inproc://stats-old-server")
	if err != nil {
		t.Fatal(err)
	}
	oc, err := Connect(oldAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	stats, err = oc.Stats()
	want := InstanceStats{Namespace: NSHardware, Publishes: 7, Series: 3, SeriesCap: 8192, SeriesBytes: 1536}
	if err != nil || len(stats) != 1 || stats[NSHardware] != want {
		t.Fatalf("stats from an older server = %+v (err=%v), want %+v", stats, err, want)
	}
}

func TestAlertWindowReadsSlotsDirectly(t *testing.T) {
	// The alert evaluator asks for a rule window per watched series per run
	// of publishes: a window the ring covers is read slot by slot — no result
	// slice, no sort — however full the ring is.
	st := newSeriesStore(0)
	for i := 0; i < 2*bucketCap; i++ {
		st.observe([]byte("k"), float64(i)+0.5, float64(i))
	}
	now := float64(2*bucketCap) - 0.5
	se := st.m["k"]
	agg, ok := se.b1.window(now-10, now)
	if !ok || agg.Count != 10 || agg.Min != now-9.5 || agg.Max != now-0.5 || agg.Mean != now-5 {
		t.Fatalf("window = %+v (ok=%v)", agg, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { se.b1.window(now-10, now) }); allocs != 0 {
		t.Fatalf("window allocated %.0f times per call", allocs)
	}
}
