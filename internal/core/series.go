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
	"sync/atomic"

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
	bucketCap = 512 // slots per bucket ring; a power of two

	pointBytes  = 16 // unsafe.Sizeof(SeriesPoint{})
	bucketBytes = 40 // unsafe.Sizeof(bucket{})

	// defaultMaxSeries bounds distinct series per namespace instance; leaves
	// beyond the cap are skipped and counted (core.series.dropped).
	defaultMaxSeries = 8192

	// seriesShards spreads series of one instance across locks so concurrent
	// publishers (stripes) rarely contend.
	seriesShards = 16

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

// rawRing keeps the newest rawCap raw samples: it grows by append until it
// holds rawCap points and only then wraps, overwriting the oldest.
type rawRing struct {
	pts  []SeriesPoint
	head int // oldest point once len(pts) == rawCap, where the next one lands
}

func (r *rawRing) push(p SeriesPoint) {
	if len(r.pts) < rawCap {
		r.pts = append(r.pts, p)
		return
	}
	r.pts[r.head] = p
	r.head = (r.head + 1) % rawCap
}

// since returns the held points with Time >= after, oldest first.
func (r *rawRing) since(after float64) []SeriesPoint {
	out := make([]SeriesPoint, 0, len(r.pts))
	for i := range r.pts {
		if p := r.pts[(r.head+i)%len(r.pts)]; p.Time >= after {
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

// bucketRing is a direct-mapped ring of at most bucketCap windows: window w
// lives in slot w mod len(slots), with the stored start telling generations
// apart. It answers exactly as a ring of bucketCap slots would, but starts
// empty and doubles only when two windows that the full ring keeps apart
// (their distance is not a multiple of bucketCap) would share a slot — so its
// size follows the span of windows it holds, up to the same bound.
type bucketRing struct {
	width int64
	slots []bucket // len is 0 or a power of two <= bucketCap
}

// add folds one sample into its window, growing the ring when it must. Two
// windows that share a slot of the full ring are generations of it: the newer
// one evicts, an older (late) sample is dropped.
func (br *bucketRing) add(t, v float64) {
	if !(t >= 0 && t <= maxSeriesTime) { // also rejects NaN
		return
	}
	w := int64(math.Floor(t / float64(br.width)))
	start := w * br.width
	if len(br.slots) == 0 {
		br.grow()
	}
	for {
		slot := &br.slots[w%int64(len(br.slots))]
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
		case slot.start >= 0 && (w-slot.start/br.width)%bucketCap != 0:
			br.grow()
			continue
		case slot.start < start:
			*slot = bucket{start: start, min: v, max: v, sum: v, count: 1}
		default:
			// Late sample whose window was already evicted by the ring: drop.
		}
		return
	}
}

// grow doubles the ring (from nothing to two slots) and re-slots the live
// windows: windows apart modulo n stay apart modulo 2n, so none is lost.
func (br *bucketRing) grow() {
	old := br.slots
	br.slots = make([]bucket, max(2, 2*len(old)))
	for i := range br.slots {
		br.slots[i].start = -1
	}
	n := int64(len(br.slots))
	for _, b := range old {
		if b.start >= 0 {
			br.slots[b.start/br.width%n] = b
		}
	}
}

// live returns the non-empty buckets with start >= after, oldest first.
func (br *bucketRing) live(after float64) []bucket {
	out := make([]bucket, 0, len(br.slots))
	for _, b := range br.slots {
		if b.start < 0 || float64(b.start) < after {
			continue
		}
		out = append(out, b)
	}
	slices.SortFunc(out, func(a, b bucket) int { return cmp.Compare(a.start, b.start) })
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
	if n := int64(len(br.slots)); hi-lo < float64(n*br.width) {
		for w := (int64(lo) + br.width - 1) / br.width; w*br.width <= int64(hi); w++ {
			if b := &br.slots[w%n]; b.start == w*br.width {
				fold(b)
			}
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

// series is one metric's rollup state. Guarded by its shard's lock.
type series struct {
	raw rawRing
	b1  bucketRing
	b10 bucketRing
}

// bytes is the memory the series' three rings hold.
func (se *series) bytes() int64 {
	return int64(cap(se.raw.pts))*pointBytes + int64(len(se.b1.slots)+len(se.b10.slots))*bucketBytes
}

type seriesShard struct {
	mu sync.Mutex
	m  map[string]*series
}

// seriesStore holds every series of one namespace instance.
type seriesStore struct {
	maxSeries int
	count     int // total series across shards; guarded by countMu
	countMu   sync.Mutex
	bytes     atomic.Int64 // Σ series.bytes(), moved by observe as rings grow
	shards    [seriesShards]seriesShard
}

func newSeriesStore(maxSeries int) *seriesStore {
	if maxSeries <= 0 {
		maxSeries = defaultMaxSeries
	}
	st := &seriesStore{maxSeries: maxSeries}
	for i := range st.shards {
		st.shards[i].m = map[string]*series{}
	}
	return st
}

// fnv1a hashes the series key onto a shard.
func fnv1a[K string | []byte](s K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// observe folds one sample into its series, creating the series on first
// sight (up to the cap; it reports false for a sample dropped at the cap).
// key may alias a transient buffer: it is only copied when a new series is
// created.
func (st *seriesStore) observe(key []byte, t, v float64) bool {
	sh := &st.shards[fnv1a(key)%seriesShards]
	sh.mu.Lock()
	se, ok := sh.m[string(key)] // no alloc: map lookup special case
	if !ok {
		st.countMu.Lock()
		if st.count >= st.maxSeries {
			st.countMu.Unlock()
			sh.mu.Unlock()
			telSeriesDropped.Inc()
			return false
		}
		st.count++
		st.countMu.Unlock()
		telSeriesCount.Inc()
		se = &series{b1: bucketRing{width: 1}, b10: bucketRing{width: 10}}
		sh.m[string(key)] = se
	}
	before := se.bytes()
	se.raw.push(SeriesPoint{Time: t, Value: v})
	se.b1.add(t, v)
	se.b10.add(t, v)
	grew := se.bytes() - before
	sh.mu.Unlock()
	if grew != 0 {
		st.bytes.Add(grew)
		telSeriesBytes.Add(grew)
	}
	return true
}

// occupancy reports how many series the store holds and the bytes of their
// rings, for soma.stats.
func (st *seriesStore) occupancy() (series int, bytes int64) {
	st.countMu.Lock()
	series = st.count
	st.countMu.Unlock()
	return series, st.bytes.Load()
}

// splitSeriesPath derives (key, sampleTime) from one leaf path: the last
// fully numeric segment is the sample timestamp and is folded out of the
// key; fallback stamps the sample with the publish arrival time.
func splitSeriesPath(path string, arrival float64) (string, float64) {
	key, t, _ := splitSeriesPathBytes([]byte(path), arrival, nil)
	return string(key), t
}

// splitSeriesPathBytes is the allocation-free core of splitSeriesPath for
// the ingest hot path: key aliases either path or scratch (grown and
// returned for reuse), so it is transient like the walk buffer it comes
// from.
func splitSeriesPathBytes(path []byte, arrival float64, scratch []byte) (key []byte, t float64, _ []byte) {
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
			// Only plausible timestamps fold out: a numeric segment that is
			// negative or absurdly large ("-5", "1e30") stays in the key, so
			// hostile paths cannot smuggle ring-breaking values into t.
			if v, err := strconv.ParseFloat(string(seg), 64); err == nil && v >= 0 && v <= maxSeriesTime {
				t = v
				found = begin
				break
			}
		}
		end = begin - 1
	}
	if found < 0 {
		return path, t, scratch
	}
	segEnd := end
	switch {
	case found == 0:
		if segEnd < len(path) {
			return path[segEnd+1:], t, scratch
		}
		return nil, t, scratch
	case segEnd >= len(path):
		return path[:found-1], t, scratch
	default:
		scratch = append(scratch[:0], path[:found-1]...)
		scratch = append(scratch, path[segEnd:]...)
		return scratch, t, scratch
	}
}

// ingest folds every numeric leaf of a run of same-namespace publishes into
// the store — one sample per leaf as written, so a hostile frame that repeats
// a sibling name contributes one sample per repeat (decoding would have
// merged them first; snapshots still do) — and returns the keys of touched
// series that an armed alert rule of the run's namespace watches, for
// evaluation. A key is matched as bytes against the rules' pre-split patterns
// and becomes a string only on a match, so with no rule armed, or none
// matching, the walk, the key derivation and the store lookup all reuse
// buffers and the steady-state publish path allocates nothing here.
func (st *seriesStore) ingest(arrival float64, run []pub, armed []*armedRule) (keys []string, maxT float64) {
	maxT = arrival
	var scratch, walkBuf []byte
	points := 0
	ns := run[0].ns
	observe := func(path []byte, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		var key []byte
		var t float64
		key, t, scratch = splitSeriesPathBytes(path, arrival, scratch)
		if len(key) == 0 {
			return
		}
		if st.observe(key, t, v) {
			points++
		}
		if t > maxT {
			maxT = t
		}
		for _, r := range armed {
			if r.NS == ns && matchSegs(r.segs, key, 0) {
				keys = append(keys, string(key))
				break
			}
		}
	}
	for i := range run {
		walkBuf, _ = conduit.WalkNumericLeaves(run[i].enc, walkBuf, observe) // enc was validated at the door
	}
	telSeriesPoints.Add(int64(points))
	return keys, maxT
}

// query returns one series' data at the requested level. Raw level fills
// Points; bucket levels fill Buckets.
func (st *seriesStore) query(key string, level SeriesLevel, after float64) (pts []SeriesPoint, buckets []SeriesBucket, ok bool) {
	sh := &st.shards[fnv1a(key)%seriesShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	se, found := sh.m[key]
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

// window aggregates one series' 1 s buckets of [from, to]; see
// bucketRing.window.
func (st *seriesStore) window(key string, from, to float64) (SeriesBucket, bool) {
	sh := &st.shards[fnv1a(key)%seriesShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	se, found := sh.m[key]
	if !found {
		return SeriesBucket{}, false
	}
	return se.b1.window(from, to)
}

// keysMatching returns the sorted series keys matching a '/'-separated glob
// ('*' = one segment, '**' = any tail); "" or "**" matches everything.
func (st *seriesStore) keysMatching(pattern string) []string {
	var out []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			if pattern == "" || matchSeriesKey(pattern, k) {
				out = append(out, k)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// reset discards every series (phase boundaries, mirroring ResetNamespace).
func (st *seriesStore) reset() {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n := len(sh.m)
		var freed int64
		for _, se := range sh.m {
			freed += se.bytes()
		}
		sh.m = map[string]*series{}
		sh.mu.Unlock()
		st.countMu.Lock()
		st.count -= n
		st.countMu.Unlock()
		st.bytes.Add(-freed)
		telSeriesCount.Add(-int64(n))
		telSeriesBytes.Add(-freed)
	}
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
// 1s/10s min/max/mean/count buckets, with Time/Start >= after.
func (c *Client) Series(ns Namespace, key string, level SeriesLevel, after float64) (Series, error) {
	req := conduit.Marshal(nsReq{NS: ns, Key: key, Level: level, After: after})
	resp, err := callTree(context.Background(), c.ep, RPCSeries, req)
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
