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
// one evicts, an older (late) sample is dropped. Window numbers are never
// negative and ring lengths are powers of two, so a mask picks the slot.
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
		slot := &br.slots[w&int64(len(br.slots)-1)]
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
		case slot.start >= 0 && (w-slot.start/br.width)&(bucketCap-1) != 0:
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
	mask := int64(len(br.slots) - 1)
	for _, b := range old {
		if b.start >= 0 {
			br.slots[b.start/br.width&mask] = b
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
			if b := &br.slots[w&(n-1)]; b.start == w*br.width {
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

// series is one metric's rollup state. Guarded by its store's lock.
type series struct {
	key string // the store's map key; a series never changes key

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
}

// orphaned is the armed set of a series a reset removed from its store: an
// alert evaluation still holding the series from a fold before the reset
// skips it.
var orphaned = new([]*armedRule)

// bytes is the memory the series' three rings hold.
func (se *series) bytes() int64 {
	return int64(cap(se.raw.pts))*pointBytes + int64(len(se.b1.slots)+len(se.b10.slots))*bucketBytes
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
}

func newSeriesStore(maxSeries int) *seriesStore {
	if maxSeries <= 0 {
		maxSeries = defaultMaxSeries
	}
	return &seriesStore{maxSeries: maxSeries, m: map[string]*series{}}
}

// lookup returns the series of key, creating it on first sight; nil when the
// store is at its cap, in which case the sample is counted as dropped. key
// may alias a transient buffer: it is only copied when a series is created.
// Called under mu.
func (st *seriesStore) lookup(key []byte) *series {
	if se, ok := st.m[string(key)]; ok { // no alloc: map lookup special case
		return se
	}
	if len(st.m) >= st.maxSeries {
		telSeriesDropped.Inc()
		return nil
	}
	se := &series{key: string(key), b1: bucketRing{width: 1}, b10: bucketRing{width: 10}}
	st.m[se.key] = se
	telSeriesCount.Inc()
	return se
}

// add folds one sample into se. Called under mu.
func (st *seriesStore) add(se *series, t, v float64) {
	before := se.bytes()
	se.raw.push(SeriesPoint{Time: t, Value: v})
	se.b1.add(t, v)
	se.b10.add(t, v)
	if grew := se.bytes() - before; grew != 0 {
		st.bytes += grew
		telSeriesBytes.Add(grew)
	}
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
// keys end to end in keys, each sample's key ending at its end.
type foldScratch struct {
	walk    []byte
	split   keySplitter
	keys    []byte
	samples []foldSample
}

type foldSample struct {
	end  int
	t, v float64
}

var foldScratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// ingest folds every numeric leaf of a run of same-namespace publishes into
// the store — one sample per leaf as written, so a hostile frame that repeats
// a sibling name contributes one sample per repeat (decoding would have
// merged them first; snapshots still do) — and returns, in leaf order, the
// touched series that an armed rule of the run's namespace watches, for
// evaluation. armed is the namespace's armed rules (nil when it has none).
// The walk and the key derivation run before the lock, with the timestamp
// segment the leaves of a sample share parsed once; the lock is then taken
// once for the run, and each sample resolves to its series with one map
// lookup and takes the series' own rule match, made once per rule set
// (series.judge). With the scratch and the rings grown and no rule matching,
// the steady-state publish path allocates nothing here.
func (st *seriesStore) ingest(arrival float64, run []pub, armed *[]*armedRule) (watched []*series, maxT float64) {
	maxT = arrival
	fs := foldScratchPool.Get().(*foldScratch)
	fs.keys, fs.samples = fs.keys[:0], fs.samples[:0]
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
	}
	points, begin := 0, 0
	st.mu.Lock()
	for _, s := range fs.samples {
		se := st.lookup(fs.keys[begin:s.end])
		begin = s.end
		if se == nil {
			continue
		}
		st.add(se, s.t, s.v)
		points++
		se.judge(armed)
		if len(se.rules) > 0 {
			if watched == nil {
				watched = make([]*series, 0, 64)
			}
			watched = append(watched, se)
		}
	}
	st.mu.Unlock()
	foldScratchPool.Put(fs)
	telSeriesPoints.Add(int64(points))
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

// reset discards every series (phase boundaries, mirroring ResetNamespace).
func (st *seriesStore) reset() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, se := range st.m {
		se.armed, se.rules = orphaned, nil
	}
	telSeriesCount.Add(-int64(len(st.m)))
	telSeriesBytes.Add(-st.bytes)
	st.m = map[string]*series{}
	st.bytes = 0
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
