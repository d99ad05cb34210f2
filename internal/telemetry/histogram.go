package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 latency buckets. Bucket i counts
// observations whose nanosecond duration has bit length i, i.e. durations in
// [2^(i-1), 2^i); bucket 0 holds zero/negative durations. 64 buckets cover
// every possible int64 duration, so no observation is ever out of range.
const histBuckets = 64

// Histogram is a fixed-bucket latency histogram: one atomic add per
// observation, no locks, no allocation. Percentiles are reconstructed from
// the bucket counts at read time with linear interpolation inside the
// bucket, which is plenty for p50/p95/p99 dashboards (buckets are a factor
// of two wide, so the reconstructed quantile is within 2x of the true one
// and usually much closer).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	// exemplars[i] holds the TraceID of the most recent traced observation
	// that landed in bucket i — the link from a latency percentile back to
	// a kept trace (see TraceStore). One relaxed atomic store per traced
	// observation; untraced observations never touch it.
	exemplars [histBuckets]atomic.Uint64
}

// bucketIdx maps a nanosecond duration onto its log2 bucket.
func bucketIdx(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	h.buckets[bucketIdx(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
}

// ObserveTrace is Observe plus an exemplar: when traceID is non-zero it is
// remembered as the duration bucket's most recent trace, so dashboards can
// jump from "the p99 bucket" to a concrete kept trace (soma.trace.get).
func (h *Histogram) ObserveTrace(d time.Duration, traceID uint64) {
	h.Observe(d)
	if traceID != 0 {
		h.exemplars[bucketIdx(int64(d))].Store(traceID)
	}
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile reconstructs the q-th quantile (0 < q <= 1) from the bucket
// counts. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	// Copy the bucket counts first so the walk sees one consistent-enough
	// view; the total is re-derived from the copy rather than h.count so
	// rank never exceeds the copied mass.
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	max := h.maxNS.Load()
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == 0 {
				return 0
			}
			lo := int64(1) << (i - 1)
			hi := int64(1) << i
			// Linear interpolation by rank position within the bucket,
			// clamped to the true max so reconstructed quantiles never
			// exceed an observed value.
			ns := lo + int64(float64(hi-lo)*float64(rank-cum)/float64(c))
			if ns > max {
				ns = max
			}
			return time.Duration(ns)
		}
		cum += c
	}
	return time.Duration(max)
}

// BucketExemplar links one occupied latency bucket to the most recent
// TraceID observed in it.
type BucketExemplar struct {
	// Ceil is the bucket's exclusive upper bound (2^i ns).
	Ceil    time.Duration `conduit:"le_ns" json:"ceil_ns"`
	TraceID ID            `conduit:"trace" json:"trace_id"`
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count uint64        `conduit:"count" json:"count"`
	Sum   time.Duration `conduit:"sum_ns" json:"sum_ns"`
	Max   time.Duration `conduit:"max_ns" json:"max_ns"`
	P50   time.Duration `conduit:"p50_ns" json:"p50_ns"`
	P95   time.Duration `conduit:"p95_ns" json:"p95_ns"`
	P99   time.Duration `conduit:"p99_ns" json:"p99_ns"`
	// Exemplars lists, ascending by bucket, the most recent TraceID per
	// occupied bucket (only buckets that saw a traced observation appear).
	Exemplars []BucketExemplar `conduit:"exemplars" json:"exemplars,omitempty"`
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sumNS.Load()),
		Max:   time.Duration(h.maxNS.Load()),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := 1; i < histBuckets; i++ {
		if id := h.exemplars[i].Load(); id != 0 {
			ceil := time.Duration(math.MaxInt64)
			if i < 63 {
				ceil = time.Duration(int64(1) << i)
			}
			snap.Exemplars = append(snap.Exemplars, BucketExemplar{Ceil: ceil, TraceID: ID(id)})
		}
	}
	return snap
}
