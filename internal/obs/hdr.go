// HDR is a log-bucketed high-dynamic-range histogram in the style of
// HdrHistogram: values are binned by (octave, sub-bucket) so relative error
// is bounded (~3% with 5 sub-bucket bits) across twelve orders of magnitude,
// the whole structure is a fixed array (mergeable by element-wise addition,
// Observe allocates nothing), and quantiles come from a single forward scan.
// It is the registry's one histogram kind.
package obs

import (
	"fmt"
	"math/bits"

	"procmig/internal/sim"
)

const (
	hdrSubBits  = 5               // sub-buckets per octave = 2^5 = 32
	hdrSubCount = 1 << hdrSubBits // linear region: values 0..31 get exact buckets
	hdrHalf     = hdrSubCount / 2 // each octave above the linear region has 16 buckets
	hdrOctaves  = 63 - hdrSubBits // octaves 2^5..2^62 inclusive
	hdrBuckets  = hdrSubCount + hdrOctaves*hdrHalf
)

// HDR is the histogram itself. The zero value is ready to use.
type HDR struct {
	counts [hdrBuckets]int64
	n      int64
	sum    int64
	max    int64
}

// hdrIndex maps a value to its bucket. Values 0..31 map to themselves;
// above that, the top 5 bits of the value select (octave, sub-bucket).
func hdrIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < hdrSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= hdrSubBits
	idx := hdrSubCount + (exp-hdrSubBits)*hdrHalf + int(v>>uint(exp-hdrSubBits+1)) - hdrHalf
	if idx >= hdrBuckets {
		return hdrBuckets - 1
	}
	return idx
}

// hdrUpper is the largest value that maps into bucket i — the value a
// quantile query reports (quantiles are therefore upper bounds, never
// underestimates, with bounded relative error).
func hdrUpper(i int) int64 {
	if i < hdrSubCount {
		return int64(i)
	}
	oct := (i - hdrSubCount) / hdrHalf
	sub := (i - hdrSubCount) % hdrHalf
	return int64(hdrHalf+sub+1)<<uint(oct+1) - 1
}

// Observe records one value. Zero allocations, no branches beyond the
// index math: safe for per-request hot paths.
func (h *HDR) Observe(v int64) {
	h.counts[hdrIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports how many values were observed.
func (h *HDR) Count() int64 { return h.n }

// Sum reports the total of all observed values.
func (h *HDR) Sum() int64 { return h.sum }

// Max reports the largest observed value (0 if empty).
func (h *HDR) Max() int64 { return h.max }

// Merge folds o into h element-wise. Histograms from different hosts (or
// different generators) combine exactly — the merged quantiles are the
// quantiles of the union, which per-host percentile averaging can never give.
func (h *HDR) Merge(o *HDR) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset zeroes the histogram for reuse (window rotation).
func (h *HDR) Reset() { *h = HDR{} }

// Quantile reports an upper bound on the q-quantile (0 < q <= 1): the upper
// edge of the bucket holding the ceil(q*n)-th smallest observation, clamped
// to the true maximum. Empty histograms report 0.
func (h *HDR) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			u := hdrUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// P50, P99, P999: the quantiles the SLI plane renders everywhere.
func (h *HDR) P50() int64  { return h.Quantile(0.50) }
func (h *HDR) P99() int64  { return h.Quantile(0.99) }
func (h *HDR) P999() int64 { return h.Quantile(0.999) }

// Summary renders the one-line form used by Snapshot and migbench.
func (h *HDR) Summary() string {
	return fmt.Sprintf("n=%d p50=%d p99=%d p999=%d max=%d",
		h.n, h.P50(), h.P99(), h.P999(), h.max)
}

// WindowPoint is one sealed window of a WindowedHDR: the quantile summary
// of everything observed in [Start, Start+width). Windows with no
// observations are not recorded.
type WindowPoint struct {
	Start sim.Time `json:"start"`
	N     int64    `json:"n"`
	P50   int64    `json:"p50"`
	P99   int64    `json:"p99"`
	P999  int64    `json:"p999"`
	Max   int64    `json:"max"`
}

// WindowedHDR is an HDR plus a sliding sim-time window: observations land in
// both an all-time total and the current window; when an observation crosses
// the window edge the finished window is sealed into a quantile time series.
// Windows are aligned to multiples of the width, so two generators with the
// same width produce comparable series. Sealing is amortized O(buckets) per
// window — nothing on the per-observation path allocates.
type WindowedHDR struct {
	width  sim.Duration
	cur    HDR
	start  sim.Time // start of the current window; valid once armed
	armed  bool
	total  HDR
	points []WindowPoint
}

// NewWindowedHDR creates a windowed histogram with the given window width
// (0 falls back to one simulated second).
func NewWindowedHDR(width sim.Duration) *WindowedHDR {
	if width <= 0 {
		width = sim.Second
	}
	return &WindowedHDR{width: width, points: make([]WindowPoint, 0, 64)}
}

// Observe records v at sim-time now. now must not decrease between calls
// (sim time never does).
func (w *WindowedHDR) Observe(now sim.Time, v int64) {
	w.roll(now)
	w.cur.Observe(v)
	w.total.Observe(v)
}

// roll seals finished windows and aligns the current one to contain now.
func (w *WindowedHDR) roll(now sim.Time) {
	edge := now - now%sim.Time(w.width)
	if !w.armed {
		w.start, w.armed = edge, true
		return
	}
	if edge == w.start {
		return
	}
	w.seal()
	w.start = edge
}

func (w *WindowedHDR) seal() {
	if w.cur.n == 0 {
		return
	}
	w.points = append(w.points, WindowPoint{
		Start: w.start, N: w.cur.n,
		P50: w.cur.P50(), P99: w.cur.P99(), P999: w.cur.P999(), Max: w.cur.max,
	})
	w.cur.Reset()
}

// Seal force-closes the in-progress window (end of run) so Series covers
// every observation.
func (w *WindowedHDR) Seal() {
	w.seal()
	w.armed = false
}

// Total exposes the all-time histogram (callers must not mutate it... they
// may Merge *from* it).
func (w *WindowedHDR) Total() *HDR { return &w.total }

// Series returns the sealed windows in time order. The slice is the live
// backing store — callers must treat it as read-only.
func (w *WindowedHDR) Series() []WindowPoint { return w.points }
