package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/mercury"
	"github.com/hpcobs/gosoma/internal/telemetry"
)

// Windowed rollup engine: per-namespace time-series buckets populated at
// publish time, off the stripe append. Every numeric leaf of a published
// tree becomes one sample of a series; consecutive samples of the same
// series are downsampled into 1 s and 10 s min/max/mean/count buckets held
// in bounded rings that grow with the data they hold, so somatop can render
// sparklines (and the alert evaluator can judge windows) without ever
// re-merging what was published.
//
// Series identity: the paper's layouts embed the sample timestamp in the
// leaf path (PROC/<host>/<ts>/CPU Util, RP/summary/<ts>/running), which
// would make every publish a brand-new path. The rollup folds timestamp
// segments out: any path segment that parses as a float is treated as the
// sample time and removed from the series key (when it is a plausible
// timestamp: non-negative, at most maxSeriesTime), so
//
//	PROC/cn01/123.500000/CPU Util  →  key "PROC/cn01/CPU Util", t=123.5
//
// and successive samples land in the same series. Leaves without a
// timestamp segment are stamped with the publish arrival time.

// Rollup ring geometry. Retention = capacity × bucket width: ~8.5 min of 1 s
// buckets, ~85 min of 10 s buckets, plus the newest rawCap raw points. The
// capacities are bounds, not allocations: a ring grows with the data it holds
// (rawRing.push, bucketRing.add), so a series costs what it has seen — about
// 1 KB after ten seconds, 48 KiB once all three rings are full.
const (
	rawCap    = 512
	rawTail   = 4   // raw points held in the series struct; divides rawCap
	bucketCap = 512 // slots per bucket ring; a power of two

	pointBytes  = 16 // unsafe.Sizeof(SeriesPoint{})
	bucketBytes = 40 // unsafe.Sizeof(bucket{})

	// defaultMaxSeries bounds distinct series per namespace instance; leaves
	// beyond the cap are skipped and counted (core.series.dropped).
	defaultMaxSeries = 8192

	// maxShapeBytes bounds the shape memo of each namespace instance (Σ
	// shape.bytes): about 130 of the monitors' 200-leaf publish shapes, at
	// 7.8 KB each.
	maxShapeBytes = 1 << 20

	// maxSeriesTime bounds sample timestamps accepted into the rollup rings.
	// Values outside [0, maxSeriesTime] cannot be real sample times (client
	// clocks are epoch- or run-relative seconds) and would overflow the
	// int64 bucket arithmetic; paths carrying them are stamped with the
	// arrival time instead.
	maxSeriesTime = 1e15
)

var (
	telSeriesPoints  = telemetry.Default().Counter("core.series.points")
	telSeriesDropped = telemetry.Default().Counter("core.series.dropped")
	// Occupancy of every rollup store in the process, next to its bound
	// (defaultMaxSeries per namespace instance; 48 KiB per full series).
	telSeriesCount = telemetry.Default().Gauge("core.series.count")
	telSeriesBytes = telemetry.Default().Gauge("core.series.bytes")
	// The shape memo of every rollup store: entries, their bytes (bounded by
	// maxShapeBytes per namespace instance) and the entries evicted to keep
	// that bound.
	telShapeEntries   = telemetry.Default().Gauge("core.series.memo_entries")
	telShapeBytes     = telemetry.Default().Gauge("core.series.memo_bytes")
	telShapeEvictions = telemetry.Default().Counter("core.series.memo_evictions")
)

// SeriesLevel selects a rollup resolution.
type SeriesLevel string

// The three levels of the raw → 1s → 10s downsampling cascade.
const (
	LevelRaw SeriesLevel = "raw"
	Level1s  SeriesLevel = "1s"
	Level10s SeriesLevel = "10s"
)

func (l SeriesLevel) valid() bool {
	return l == LevelRaw || l == Level1s || l == Level10s
}

func (l SeriesLevel) width() float64 {
	if l == Level10s {
		return 10
	}
	return 1
}

// SeriesPoint is one raw sample.
type SeriesPoint struct {
	Time  float64
	Value float64
}

// SeriesBucket is one downsampled window.
type SeriesBucket struct {
	Start float64 // window start (inclusive)
	Min   float64
	Max   float64
	Mean  float64
	Count int64
}

// rawRing keeps the newest rawCap raw samples. The newest points wait in an
// inline tail and are written to pts rawTail at a time — one cache line — so
// a sample stores into the series' own struct. pts grows by append until it
// holds rawCap points and only then wraps, overwriting the oldest chunk; the
// points a full pts and the tail hold beyond rawCap are cut off at read.
type rawRing struct {
	tail [rawTail]SeriesPoint
	n    int // points in tail
	head int // oldest point once len(pts) == rawCap, where the next chunk lands
	pts  []SeriesPoint
}

// push appends p and returns the bytes pts grew by.
func (r *rawRing) push(p SeriesPoint) (grew int64) {
	r.tail[r.n] = p
	if r.n++; r.n < rawTail {
		return 0
	}
	r.n = 0
	if len(r.pts) < rawCap {
		c := cap(r.pts)
		r.pts = append(r.pts, r.tail[:]...)
		return int64(cap(r.pts)-c) * pointBytes
	}
	copy(r.pts[r.head:], r.tail[:])
	r.head = (r.head + rawTail) % rawCap
	return 0
}

// since returns the newest rawCap points with Time >= after, oldest first.
func (r *rawRing) since(after float64) []SeriesPoint {
	held := len(r.pts) + r.n
	skip := max(0, held-rawCap)
	out := make([]SeriesPoint, 0, held-skip)
	for i := skip; i < len(r.pts); i++ {
		if p := r.pts[(r.head+i)%len(r.pts)]; p.Time >= after {
			out = append(out, p)
		}
	}
	for _, p := range r.tail[:r.n] {
		if p.Time >= after {
			out = append(out, p)
		}
	}
	return out
}

// bucket is one rollup window; start < 0 marks an empty slot.
type bucket struct {
	start    int64
	min, max float64
	sum      float64
	count    int64
}

// merge folds b, a bucket of the same window, into a.
func (a *bucket) merge(b *bucket) {
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.sum += b.sum
	a.count += b.count
}

// bucketRing is a direct-mapped ring of at most bucketCap windows: window w
// lives in slot w mod len(slots), with the stored start telling generations
// apart. It answers exactly as a ring of bucketCap slots would, but starts
// empty and doubles only when two windows that the full ring keeps apart
// (their distance is not a multiple of bucketCap) would share a slot — so its
// size follows the span of windows it holds, up to the same bound.
//
// The newest window is held apart, in open, and placed into its slot only
// when a newer window arrives, so the samples of one window fold into the
// series' own struct and a window change writes one slot. In the full ring
// the open window would already have evicted the older generation of its
// slot; that window stays in the slots until the open one is placed over it,
// and reads mask it (superseded).
type bucketRing struct {
	width int64
	open  bucket   // the newest window; count is 0 until the first sample
	slots []bucket // len is 0 or a power of two <= bucketCap
}

// add folds one sample into its window and returns the bytes the slots grew
// by. A sample older than the open window goes to the slots; one whose window
// the full ring has already evicted is dropped.
func (br *bucketRing) add(t, v float64) (grew int64) {
	if !(t >= 0 && t <= maxSeriesTime) { // also rejects NaN
		return 0
	}
	start := int64(math.Floor(t/float64(br.width))) * br.width
	o := &br.open
	if start != o.start || o.count == 0 {
		return br.shift(start, v)
	}
	if v < o.min {
		o.min = v
	}
	if v > o.max {
		o.max = v
	}
	o.sum += v
	o.count++
	return 0
}

// shift is add for a sample outside the open window: a newer window places
// the open one into its slot and opens; an older one goes to the slots.
func (br *bucketRing) shift(start int64, v float64) (grew int64) {
	switch o := &br.open; {
	case start > o.start || o.count == 0:
		if o.count != 0 {
			grew = br.put(*o)
		}
		*o = bucket{start: start, min: v, max: v, sum: v, count: 1}
	case !br.superseded(start):
		grew = br.put(bucket{start: start, min: v, max: v, sum: v, count: 1})
	}
	return grew
}

// superseded reports whether the window at start, older than the open one,
// shares the open window's slot in the full ring, which has evicted it. Only
// a window at least bucketCap windows older can; reads ask of every slot, so
// that compare comes before the division.
func (br *bucketRing) superseded(start int64) bool {
	d := br.open.start - start
	return br.open.count != 0 && d >= bucketCap*br.width && d/br.width&(bucketCap-1) == 0
}

// put folds b into its slot, growing the ring when it must. Two windows that
// share a slot of the full ring are generations of it: the newer one evicts,
// an older (late) one is dropped. Window numbers are never negative and ring
// lengths are powers of two, so a mask picks the slot.
func (br *bucketRing) put(b bucket) (grew int64) {
	w := b.start / br.width
	if len(br.slots) == 0 {
		grew += br.grow()
	}
	for {
		slot := &br.slots[w&int64(len(br.slots)-1)]
		switch {
		case slot.start == b.start:
			slot.merge(&b)
		case slot.start >= 0 && (w-slot.start/br.width)&(bucketCap-1) != 0:
			grew += br.grow()
			continue
		case slot.start < b.start:
			*slot = b
		default:
			// Late sample whose window was already evicted by the ring: drop.
		}
		return grew
	}
}

// grow doubles the ring (from nothing to two slots), re-slots the live
// windows — windows apart modulo n stay apart modulo 2n, so none is lost — and
// returns the bytes it added.
func (br *bucketRing) grow() int64 {
	old := br.slots
	br.slots = make([]bucket, max(2, 2*len(old)))
	for i := range br.slots {
		br.slots[i].start = -1
	}
	mask := int64(len(br.slots) - 1)
	for _, b := range old {
		if b.start >= 0 {
			br.slots[b.start/br.width&mask] = b
		}
	}
	return int64(len(br.slots)-len(old)) * bucketBytes
}

// live returns the non-empty windows with start >= after, oldest first.
func (br *bucketRing) live(after float64) []bucket {
	out := make([]bucket, 0, len(br.slots)+1)
	for _, b := range br.slots {
		if b.start < 0 || float64(b.start) < after || br.superseded(b.start) {
			continue
		}
		out = append(out, b)
	}
	slices.SortFunc(out, func(a, b bucket) int { return cmp.Compare(a.start, b.start) })
	if o := br.open; o.count != 0 && !(float64(o.start) < after) {
		out = append(out, o) // the newest window
	}
	return out
}

// collect returns live(after) in the form soma.series reports.
func (br *bucketRing) collect(after float64) []SeriesBucket {
	live := br.live(after)
	out := make([]SeriesBucket, len(live))
	for i, b := range live {
		out[i] = SeriesBucket{
			Start: float64(b.start), Min: b.min, Max: b.max,
			Mean: b.sum / float64(b.count), Count: b.count,
		}
	}
	return out
}

// window aggregates the buckets with from <= start <= to into one
// min/max/mean — the alert evaluator's view of a rule window — oldest first,
// so the sum does not depend on how the ring is laid out. A window no wider
// than the ring addresses its slots directly; a wider one walks the ring.
func (br *bucketRing) window(from, to float64) (SeriesBucket, bool) {
	agg := SeriesBucket{Start: from, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	fold := func(b *bucket) {
		if b.min < agg.Min {
			agg.Min = b.min
		}
		if b.max > agg.Max {
			agg.Max = b.max
		}
		sum += b.sum
		agg.Count += b.count
	}
	// Starts are whole seconds, so the bounds round inward to integers.
	lo, hi := math.Max(math.Ceil(from), 0), math.Min(math.Floor(to), maxSeriesTime)
	if lo > hi {
		return SeriesBucket{}, false
	}
	if n := int64(len(br.slots)); n == 0 || hi-lo < float64(n*br.width) {
		for w := (int64(lo) + br.width - 1) / br.width; n > 0 && w*br.width <= int64(hi); w++ {
			if b := &br.slots[w&(n-1)]; b.start == w*br.width && !br.superseded(b.start) {
				fold(b)
			}
		}
		// The open window is newer than every slot's, so it folds last.
		if o := &br.open; o.count != 0 && float64(o.start) >= lo && float64(o.start) <= hi {
			fold(o)
		}
	} else {
		live := br.live(from)
		for i := range live {
			if float64(live[i].start) > to {
				break
			}
			fold(&live[i])
		}
	}
	if agg.Count == 0 {
		return SeriesBucket{}, false
	}
	agg.Mean = sum / float64(agg.Count)
	return agg, true
}

// series is one metric's rollup state. Guarded by its store's lock. A sample
// reads and writes only the fields up to b10's open window, four of the five
// cache lines of the struct's 320-byte size class.
type series struct {
	// rules are the rules of armed, the armed rule set of the namespace last
	// folded into the series, whose pattern matches key. Every set/remove
	// republishes each namespace's set under a new pointer, so a series is
	// matched once per rule set, not once per sample (judge). The series is
	// watched when rules is not empty.
	armed *[]*armedRule
	rules []*armedRule

	raw rawRing
	b1  bucketRing
	b10 bucketRing

	key string // the store's map key; a series never changes key
}

// orphaned is the armed set of a series a reset removed from its store: an
// alert evaluation still holding the series from a fold before the reset
// skips it.
var orphaned = new([]*armedRule)

// bytes is the memory the series' three rings hold beyond the struct.
func (se *series) bytes() int64 {
	return int64(cap(se.raw.pts))*pointBytes + int64(len(se.b1.slots)+len(se.b10.slots))*bucketBytes
}

// fold adds one sample to the series' three rings and returns the bytes they
// grew by.
func (se *series) fold(t, v float64) (grew int64) {
	return se.raw.push(SeriesPoint{Time: t, Value: v}) + se.b1.add(t, v) + se.b10.add(t, v)
}

// judge brings se.rules up to date with armed, the armed rules of the
// namespace a sample is folded under (nil when it has none), unless they
// were judged against it already.
func (se *series) judge(armed *[]*armedRule) {
	if se.armed == armed {
		return
	}
	se.armed, se.rules = armed, se.rules[:0]
	if armed == nil {
		return
	}
	for _, r := range *armed {
		if matchSegs(r.segs, se.key, 0) {
			se.rules = append(se.rules, r)
		}
	}
}

// seriesStore holds every series of one namespace instance under one lock,
// which ingest takes once per run of publishes, for the lookups and the ring
// updates only.
type seriesStore struct {
	maxSeries int

	mu    sync.Mutex
	m     map[string]*series // keyed by series.key; len(m) is the series count
	bytes int64              // Σ series.bytes()

	// shapes resolves a publish of more than one sample to its series with
	// one lookup, keyed by the publish's first series key; shapeBytes is
	// Σ shape.bytes, kept at most maxShapeBytes by eviction.
	shapes     map[string]*shape
	shapeBytes int64
}

// shape is the series a publish resolved to, recorded with the key bytes and
// key boundaries that name them: a publish of the same keys, cut the same
// way, resolves to the same series for as long as the store holds them.
type shape struct {
	keys   []byte    // the publish's series keys end to end
	ends   []int32   // where each key ends in keys
	series []*series // each key's series, in leaf order
}

// shapeOverhead is what a shape costs beyond its arrays and its map key: the
// struct and a map entry's key header and value pointer.
const shapeOverhead = int64(unsafe.Sizeof(shape{})) + 16 + 8

// bytes is what the shape memo holds for sh under a first key firstLen long.
func (sh *shape) bytes(firstLen int) int64 {
	return int64(firstLen+cap(sh.keys)+4*cap(sh.ends)+8*cap(sh.series)) + shapeOverhead
}

// matches reports whether keys, cut at the samples' ends (offset by k0), are
// the keys sh was recorded with.
func (sh *shape) matches(keys []byte, samples []foldSample, k0 int) bool {
	if len(sh.ends) != len(samples) || !bytes.Equal(sh.keys, keys) {
		return false
	}
	for i := range samples {
		if int(sh.ends[i]) != samples[i].end-k0 {
			return false
		}
	}
	return true
}

func newSeriesStore(maxSeries int) *seriesStore {
	if maxSeries <= 0 {
		maxSeries = defaultMaxSeries
	}
	return &seriesStore{maxSeries: maxSeries, m: map[string]*series{}, shapes: map[string]*shape{}}
}

// lookup returns the series of key, creating it on first sight; nil when the
// store is at its cap, where the caller counts the sample as dropped. key may
// alias a transient buffer: it is only copied when a series is created.
// Called under mu.
func (st *seriesStore) lookup(key []byte) *series {
	if se, ok := st.m[string(key)]; ok { // no alloc: map lookup special case
		return se
	}
	if len(st.m) >= st.maxSeries {
		return nil
	}
	se := &series{key: string(key), b1: bucketRing{width: 1}, b10: bucketRing{width: 10}}
	st.m[se.key] = se
	telSeriesCount.Inc()
	return se
}

// resolve returns the series of one publish's samples in leaf order, nil for
// a sample dropped at the cap, and how many were dropped; fs.keys[k0:] holds
// the samples' keys end to end. A publish of one sample goes to the map. A wider
// one is looked up in the shape memo by its first key and, on a miss, goes to
// the map key by key and is recorded unless a sample was dropped. Called
// under mu.
func (st *seriesStore) resolve(fs *foldScratch, samples []foldSample, k0 int) (_ []*series, dropped int) {
	var sh *shape
	var first []byte
	if len(samples) > 1 {
		first = fs.keys[k0:samples[0].end]
		sh = st.shapes[string(first)]
		if sh != nil && sh.matches(fs.keys[k0:samples[len(samples)-1].end], samples, k0) {
			return sh.series, 0
		}
	}
	fs.series = fs.series[:0]
	begin := k0
	for _, s := range samples {
		se := st.lookup(fs.keys[begin:s.end])
		if se == nil {
			dropped++
		}
		fs.series = append(fs.series, se)
		begin = s.end
	}
	if first != nil && dropped == 0 {
		st.remember(sh, first, fs.keys[k0:begin], samples, k0, fs.series)
	}
	return fs.series, dropped
}

// remember records the shape of a publish under its first key, over sh, the
// shape recorded there before (nil for none), whose arrays it reuses; then
// evicts other shapes until the memo is back within maxShapeBytes. A shape
// larger than the bound is not recorded, and one left over it by its arrays'
// spare capacity is evicted itself. Called under mu.
func (st *seriesStore) remember(sh *shape, first, keys []byte, samples []foldSample, k0 int, ses []*series) {
	if int64(len(first)+len(keys)+(4+8)*len(samples))+shapeOverhead > maxShapeBytes { // keys, ends, series
		return
	}
	before := st.shapeBytes
	if sh == nil {
		sh = new(shape)
		st.shapes[string(first)] = sh
		telShapeEntries.Inc()
	} else {
		st.shapeBytes -= sh.bytes(len(first))
	}
	sh.keys = append(sh.keys[:0], keys...)
	sh.ends = sh.ends[:0]
	for _, s := range samples {
		sh.ends = append(sh.ends, int32(s.end-k0))
	}
	sh.series = append(sh.series[:0], ses...)
	st.shapeBytes += sh.bytes(len(first))
	var evicted int64
	for k, other := range st.shapes { // map order: an arbitrary victim
		if st.shapeBytes <= maxShapeBytes {
			break
		}
		if other != sh {
			st.shapeBytes -= other.bytes(len(k))
			delete(st.shapes, k)
			evicted++
		}
	}
	if st.shapeBytes > maxShapeBytes {
		st.shapeBytes -= sh.bytes(len(first))
		delete(st.shapes, string(first))
		evicted++
	}
	if evicted > 0 {
		telShapeEvictions.Add(evicted)
		telShapeEntries.Add(-evicted)
	}
	telShapeBytes.Add(st.shapeBytes - before)
}

// occupancy reports how many series the store holds and the bytes of their
// rings, for soma.stats.
func (st *seriesStore) occupancy() (series int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m), st.bytes
}

// splitSeriesPath derives (key, sampleTime) from one leaf path: the last
// fully numeric segment is the sample timestamp and is folded out of the
// key; fallback stamps the sample with the publish arrival time.
func splitSeriesPath(path string, arrival float64) (string, float64) {
	var ks keySplitter
	key, t := ks.appendKey(nil, []byte(path), arrival)
	return string(key), t
}

// keySplitter is splitSeriesPath for the ingest hot path. It remembers the
// last numeric segment it parsed and the outcome — a sample time, or not a
// plausible one — so the leaves of one sample, which share their timestamp
// segment, parse it once. A segment longer than the memo is parsed every
// time.
type keySplitter struct {
	memo    [32]byte
	memoLen int
	memoT   float64
	memoOK  bool
}

// timestamp reports whether seg is a plausible sample time, and which.
func (ks *keySplitter) timestamp(seg []byte) (float64, bool) {
	if string(ks.memo[:ks.memoLen]) == string(seg) {
		return ks.memoT, ks.memoOK
	}
	// Only plausible timestamps fold out: a numeric segment that is negative
	// or absurdly large ("-5", "1e30") stays in the key, so hostile paths
	// cannot smuggle ring-breaking values into t.
	v, err := strconv.ParseFloat(string(seg), 64)
	ok := err == nil && v >= 0 && v <= maxSeriesTime
	if len(seg) <= len(ks.memo) {
		ks.memoLen = copy(ks.memo[:], seg)
		ks.memoT, ks.memoOK = v, ok
	}
	return v, ok
}

// appendKey appends the series key of the leaf at path to dst and returns it
// with the sample time.
func (ks *keySplitter) appendKey(dst, path []byte, arrival float64) (_ []byte, t float64) {
	t = arrival
	found := -1 // byte offset of the timestamp segment
	end := len(path)
	// Scan segments right to left so the innermost timestamp wins. The
	// leading-byte check keeps ParseFloat (whose failure allocates an
	// error) off the hot path for ordinary metric-name segments.
	for end > 0 {
		begin := bytes.LastIndexByte(path[:end], '/') + 1
		seg := path[begin:end]
		if len(seg) > 0 && (seg[0] == '.' || (seg[0] >= '0' && seg[0] <= '9')) {
			if v, ok := ks.timestamp(seg); ok {
				t = v
				found = begin
				break
			}
		}
		end = begin - 1
	}
	switch segEnd := end; {
	case found < 0:
		return append(dst, path...), t
	case found == 0:
		if segEnd < len(path) {
			return append(dst, path[segEnd+1:]...), t
		}
		return dst, t
	case segEnd >= len(path):
		return append(dst, path[:found-1]...), t
	default:
		dst = append(dst, path[:found-1]...)
		return append(dst, path[segEnd:]...), t
	}
}

// foldScratch is what one ingest walks a run with, outside the store lock:
// the walk's path buffer, the key splitter, and the run's samples — their
// keys end to end in keys, each sample's key ending at its end, and where
// each publish's samples end in samples — then, under the lock, the series a
// publish resolved to when the shape memo did not answer.
type foldScratch struct {
	walk    []byte
	split   keySplitter
	keys    []byte
	samples []foldSample
	pubs    []int
	series  []*series
}

type foldSample struct {
	end  int
	t, v float64
}

var foldScratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// ingest folds every numeric leaf of a run of same-namespace publishes into
// the store — one sample per leaf as written, so a hostile frame that repeats
// a sibling name contributes one sample per repeat (decoding would have
// merged them first; snapshots still do) — and appends to watched, in leaf
// order, the touched series that an armed rule of the run's namespace
// watches, for evaluation: the caller owns that buffer and may reuse it.
// armed is the namespace's armed rules (nil when it has none).
// The walk and the key derivation run before the lock, with the timestamp
// segment the leaves of a sample share parsed once; the lock is then taken
// once for the run, each publish resolves to its series with one lookup
// (resolve), and each sample folds into its series' own struct and takes the
// series' own rule match, made once per rule set (series.judge). With the
// scratch and the rings grown and no rule matching, the steady-state publish
// path allocates nothing here.
func (st *seriesStore) ingest(arrival float64, run []pub, armed *[]*armedRule, watched []*series) ([]*series, float64) {
	maxT := arrival
	fs := foldScratchPool.Get().(*foldScratch)
	fs.keys, fs.samples, fs.pubs = fs.keys[:0], fs.samples[:0], fs.pubs[:0]
	sample := func(path []byte, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		begin := len(fs.keys)
		var t float64
		fs.keys, t = fs.split.appendKey(fs.keys, path, arrival)
		if len(fs.keys) == begin {
			return // an empty key names no series
		}
		if t > maxT {
			maxT = t
		}
		fs.samples = append(fs.samples, foldSample{end: len(fs.keys), t: t, v: v})
	}
	for i := range run {
		fs.walk, _ = conduit.WalkNumericLeaves(run[i].enc, fs.walk, sample) // enc was validated at the door
		fs.pubs = append(fs.pubs, len(fs.samples))
	}
	points, dropped, grew := 0, 0, int64(0)
	k0, s0 := 0, 0 // where the publish's keys and samples begin
	st.mu.Lock()
	for _, s1 := range fs.pubs {
		if s1 == s0 {
			continue
		}
		samples := fs.samples[s0:s1]
		ses, d := st.resolve(fs, samples, k0)
		dropped += d
		for i, se := range ses {
			if se == nil {
				continue
			}
			grew += se.fold(samples[i].t, samples[i].v)
			points++
			se.judge(armed)
			if len(se.rules) > 0 {
				watched = append(watched, se)
			}
		}
		k0, s0 = samples[len(samples)-1].end, s1
	}
	st.bytes += grew
	st.mu.Unlock()
	clear(fs.series) // pin no series a reset discards
	foldScratchPool.Put(fs)
	telSeriesPoints.Add(int64(points))
	if dropped > 0 {
		telSeriesDropped.Add(int64(dropped))
	}
	if grew != 0 {
		telSeriesBytes.Add(grew)
	}
	return watched, maxT
}

// query returns one series' data at the requested level. Raw level fills
// Points; bucket levels fill Buckets.
func (st *seriesStore) query(key string, level SeriesLevel, after float64) (pts []SeriesPoint, buckets []SeriesBucket, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	se, found := st.m[key]
	if !found {
		return nil, nil, false
	}
	switch level {
	case LevelRaw:
		return se.raw.since(after), nil, true
	case Level10s:
		return nil, se.b10.collect(after), true
	default:
		return nil, se.b1.collect(after), true
	}
}

// keysMatching returns the sorted series keys matching a '/'-separated glob
// ('*' = one segment, '**' = any tail); "" or "**" matches everything.
func (st *seriesStore) keysMatching(pattern string) []string {
	var out []string
	st.mu.Lock()
	for k := range st.m {
		if pattern == "" || matchSeriesKey(pattern, k) {
			out = append(out, k)
		}
	}
	st.mu.Unlock()
	sort.Strings(out)
	return out
}

// reset discards every series and every shape that names them (phase
// boundaries, mirroring ResetNamespace).
func (st *seriesStore) reset() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, se := range st.m {
		se.armed, se.rules = orphaned, nil
	}
	telSeriesCount.Add(-int64(len(st.m)))
	telSeriesBytes.Add(-st.bytes)
	telShapeEntries.Add(-int64(len(st.shapes)))
	telShapeBytes.Add(-st.shapeBytes)
	st.m = map[string]*series{}
	st.bytes = 0
	st.shapes = map[string]*shape{}
	st.shapeBytes = 0
}

// matchSeriesKey implements the same glob semantics as conduit's Select
// over an already-flattened key: '*' matches exactly one segment, '**'
// matches any (possibly empty) tail.
func matchSeriesKey(pattern, key string) bool {
	return matchSegs(strings.Split(pattern, "/"), key, 0)
}

// matchSegs matches the pattern segments pat against the '/'-separated
// segments of key[off:], without splitting key — it runs per leaf on the
// ingest path, over the walk buffer's bytes. off > len(key) means key is
// exhausted (an empty key still has one, empty, segment).
func matchSegs[K string | []byte](pat []string, key K, off int) bool {
	for ; len(pat) > 0; pat = pat[1:] {
		p := pat[0]
		if p == "**" {
			if len(pat) == 1 {
				return true
			}
			for ; off <= len(key); off = segEnd(key, off) + 1 {
				if matchSegs(pat[1:], key, off) {
					return true
				}
			}
			return matchSegs(pat[1:], key, off)
		}
		if off > len(key) {
			return false
		}
		end := segEnd(key, off)
		if p != "*" && !segEqual(p, key, off, end) {
			return false
		}
		off = end + 1
	}
	return off > len(key)
}

// segEnd returns the end of the segment of key starting at off.
func segEnd[K string | []byte](key K, off int) int {
	for off < len(key) && key[off] != '/' {
		off++
	}
	return off
}

func segEqual[K string | []byte](p string, key K, off, end int) bool {
	if len(p) != end-off {
		return false
	}
	for i := 0; i < len(p); i++ {
		if p[i] != key[off+i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Service surface.

// Series is one rollup query result as the client sees it.
type Series struct {
	Key    string
	Level  SeriesLevel
	Points []SeriesPoint  // raw level
	Bucket []SeriesBucket // 1s / 10s levels
}

// ErrNoSeries reports a query for a series key that has no data.
var ErrNoSeries = fmt.Errorf("soma: no such series")

func (s *Service) seriesStoreFor(ns Namespace) (*seriesStore, error) {
	in, err := s.instanceFor(ns)
	if err != nil {
		return nil, err
	}
	if in.rollup == nil {
		return nil, fmt.Errorf("soma: rollups disabled")
	}
	return in.rollup, nil
}

// QuerySeries returns the rollup data for one series key of a namespace at
// the requested level, with Start/Time >= after.
func (s *Service) QuerySeries(ns Namespace, key string, level SeriesLevel, after float64) (Series, error) {
	if !level.valid() {
		return Series{}, fmt.Errorf("soma: unknown series level %q", level)
	}
	st, err := s.seriesStoreFor(ns)
	if err != nil {
		return Series{}, err
	}
	pts, buckets, ok := st.query(key, level, after)
	if !ok {
		return Series{}, fmt.Errorf("%w: %s/%s", ErrNoSeries, ns, key)
	}
	return Series{Key: key, Level: level, Points: pts, Bucket: buckets}, nil
}

// SeriesKeys lists the series keys of a namespace matching a glob pattern
// ("" = all), sorted.
func (s *Service) SeriesKeys(ns Namespace, pattern string) ([]string, error) {
	st, err := s.seriesStoreFor(ns)
	if err != nil {
		return nil, err
	}
	return st.keysMatching(pattern), nil
}

// ---------------------------------------------------------------------------
// RPC surface.

// nsReq is the request of every control-plane RPC scoped to one namespace.
// soma.series reads one Key at a Level (default 1s) from After on — answered
// hand-laid by encodeSeriesResp, the columnar frame monitors poll on their
// timed read — or, with Key empty, lists the keys matching Pattern as a
// []string. soma.select reads NS and Pattern, soma.reset NS alone.
type nsReq struct {
	NS      Namespace   `conduit:"ns"`
	Pattern string      `conduit:"pattern"`
	Key     string      `conduit:"key"`
	Level   SeriesLevel `conduit:"level"`
	After   float64     `conduit:"after"`
}

// handleSeries answers over a pooled encode buffer (ownedFrame): series
// responses carry per-request bucket arrays, so they are rebuilt every call
// but no longer allocate a fresh wire buffer each time.
func (s *Service) handleSeries(_ context.Context, payload []byte) (mercury.Response, error) {
	var req nsReq
	if err := unmarshalFrame(payload, &req); err != nil {
		return mercury.Response{}, err
	}
	if s.Stopped() {
		return mercury.Response{}, ErrServiceStopped
	}
	if req.Key != "" {
		se, err := s.QuerySeries(req.NS, req.Key, cmp.Or(req.Level, Level1s), req.After)
		if err != nil {
			return mercury.Response{}, err
		}
		return ownedFrame(encodeSeriesResp(se))
	}
	keys, err := s.SeriesKeys(req.NS, req.Pattern)
	if err != nil {
		return mercury.Response{}, err
	}
	return ownedFrame(conduit.Marshal(keys))
}

// ---------------------------------------------------------------------------
// Client surface.

// Series fetches one series' rollup data via soma.series: raw points, or
// 1s/10s min/max/mean/count buckets, with Time/Start >= after. A key the
// service holds no data for is ErrNoSeries, as it is in process.
func (c *Client) Series(ns Namespace, key string, level SeriesLevel, after float64) (Series, error) {
	req := conduit.Marshal(nsReq{NS: ns, Key: key, Level: level, After: after})
	resp, err := callTree(context.Background(), c.ep, RPCSeries, req)
	if isNoSeries(err) {
		return Series{}, fmt.Errorf("%w: %s/%s", ErrNoSeries, ns, key)
	}
	if err != nil {
		return Series{}, err
	}
	return decodeSeriesResp(resp), nil
}

// SeriesKeys lists a namespace's rollup series keys matching a glob pattern
// ("" = all), sorted.
func (c *Client) SeriesKeys(ns Namespace, pattern string) ([]string, error) {
	var keys []string
	if err := c.call(context.Background(), RPCSeries, nsReq{NS: ns, Pattern: pattern}, &keys); err != nil {
		return nil, err
	}
	return keys, nil
}
