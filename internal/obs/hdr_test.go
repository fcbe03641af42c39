package obs

import (
	"fmt"
	"math/rand"
	"testing"

	"procmig/internal/sim"
)

// Every value must land in a bucket whose upper bound is >= the value and
// within the scheme's relative error (1/32 above the linear region).
func TestHDRIndexBounds(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 67, 100, 1000, 12345,
		1 << 20, (1 << 40) + 12345, 1 << 62, -5}
	for _, v := range vals {
		i := hdrIndex(v)
		if i < 0 || i >= hdrBuckets {
			t.Fatalf("index(%d) = %d out of range", v, i)
		}
		u := hdrUpper(i)
		vv := v
		if vv < 0 {
			vv = 0
		}
		if u < vv {
			t.Fatalf("upper(%d)=%d below value %d", i, u, vv)
		}
		if vv >= 32 && float64(u-vv) > float64(vv)/16 {
			t.Fatalf("upper(%d)=%d too far above %d (rel err %f)", i, u, vv, float64(u-vv)/float64(vv))
		}
	}
	// Index is monotone over bucket upper bounds and upper() inverts index().
	for i := 0; i < hdrBuckets-1; i++ {
		if hdrIndex(hdrUpper(i)) != i {
			t.Fatalf("index(upper(%d)) = %d", i, hdrIndex(hdrUpper(i)))
		}
		if hdrUpper(i) >= hdrUpper(i+1) {
			t.Fatalf("upper not increasing at %d: %d >= %d", i, hdrUpper(i), hdrUpper(i+1))
		}
	}
}

func TestHDRQuantiles(t *testing.T) {
	var h HDR
	if h.P99() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	// 1..1000: quantiles must bracket the exact rank within 1/16 relative.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	checks := []struct {
		q     float64
		exact int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1.0, 1000}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact || float64(got-c.exact) > float64(c.exact)/16+1 {
			t.Fatalf("q%.3f = %d, want within [%d, %d+6%%]", c.q, got, c.exact, c.exact)
		}
	}
	if h.Max() != 1000 || h.Count() != 1000 || h.Sum() != 1000*1001/2 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
	// Quantile never exceeds the observed max even deep in a wide bucket.
	var one HDR
	one.Observe(1 << 40)
	if one.P999() != 1<<40 {
		t.Fatalf("single-value p999 = %d, want %d", one.P999(), int64(1)<<40)
	}
}

// Merging two histograms must equal observing the union directly.
func TestHDRMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, union HDR
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		union.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a != union {
		t.Fatal("merge(a,b) != union histogram")
	}
	a.Merge(nil) // must not panic
}

func TestWindowedHDRSeries(t *testing.T) {
	w := NewWindowedHDR(sim.Duration(10))
	// Two observations in window [0,10), one in [20,30): the empty window
	// [10,20) must not produce a point.
	w.Observe(sim.Time(3), 100)
	w.Observe(sim.Time(7), 200)
	w.Observe(sim.Time(25), 300)
	if got := len(w.Series()); got != 1 {
		t.Fatalf("%d sealed windows before Seal, want 1", got)
	}
	w.Seal()
	pts := w.Series()
	if len(pts) != 2 {
		t.Fatalf("%d sealed windows, want 2", len(pts))
	}
	if pts[0].Start != 0 || pts[0].N != 2 || pts[0].Max != 200 {
		t.Fatalf("window 0 = %+v", pts[0])
	}
	if pts[1].Start != 20 || pts[1].N != 1 {
		t.Fatalf("window 1 = %+v", pts[1])
	}
	if w.Total().Count() != 3 || w.Total().Max() != 300 {
		t.Fatalf("total = %+v", w.Total())
	}
}

// The per-observation path must stay allocation-free in steady state — the
// load generator calls it once per completed request.
func TestHDRObserveAllocs(t *testing.T) {
	var h HDR
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Fatalf("HDR.Observe allocates %.1f/op, want 0", n)
	}
	w := NewWindowedHDR(sim.Second)
	now := sim.Time(0)
	if n := testing.AllocsPerRun(1000, func() {
		w.Observe(now, 5000)
		now += 100
	}); n != 0 {
		t.Fatalf("WindowedHDR.Observe allocates %.1f/op, want 0", n)
	}
}

func TestSnapshotAndTotalsMergeHDR(t *testing.T) {
	reg := NewRegistry()
	wa := reg.Scope("alpha").Windowed("load.latency_us", sim.Second)
	wb := reg.Scope("beta").Windowed("load.latency_us", sim.Second)
	for i := 0; i < 100; i++ {
		wa.Observe(sim.Time(i), 100)
		wb.Observe(sim.Time(i), 1_000_000)
	}
	if again := reg.Scope("alpha").Windowed("load.latency_us", sim.Second); again != wa {
		t.Fatal("get-or-create returned a different windowed histogram")
	}
	var snap *Row
	for _, row := range reg.Snapshot() {
		if row.Host == "alpha" && row.Name == "load.latency_us" {
			r := row
			snap = &r
		}
	}
	if snap == nil || snap.Detail == "" {
		t.Fatalf("windowed histogram missing from snapshot: %+v", snap)
	}
	var tot *Row
	for _, row := range reg.Totals() {
		if row.Name == "load.latency_us" {
			r := row
			tot = &r
		}
	}
	if tot == nil {
		t.Fatal("windowed histogram missing from totals")
	}
	// The merged p50 must be alpha's value and merged p99 beta's — only a
	// true bucket-wise merge gets both right.
	merged := &HDR{}
	merged.Merge(wa.Total())
	merged.Merge(wb.Total())
	if merged.Count() != 200 {
		t.Fatalf("merged count = %d", merged.Count())
	}
	if p50 := merged.P50(); p50 > 200 {
		t.Fatalf("merged p50 = %d, want ~100", p50)
	}
	if p99 := merged.P99(); p99 < 900_000 {
		t.Fatalf("merged p99 = %d, want ~1e6", p99)
	}
	wantDetail := merged.Summary()
	if tot.Detail != wantDetail {
		t.Fatalf("totals detail = %q, want %q", tot.Detail, wantDetail)
	}
	// Plain (unwindowed) histograms merge across hosts too.
	reg.Scope("alpha").HDR("x.hist").Observe(50)
	reg.Scope("beta").HDR("x.hist").Observe(5_000_000)
	for _, row := range reg.Totals() {
		if row.Name == "x.hist" {
			if row.Value != 5_000_050 {
				t.Fatalf("merged hist sum = %d", row.Value)
			}
			var want HDR
			want.Observe(50)
			want.Observe(5_000_000)
			if row.Detail != want.Summary() {
				t.Fatalf("merged hist detail = %q, want %q", row.Detail, want.Summary())
			}
			return
		}
	}
	t.Fatal("plain histogram missing from totals")
}

func TestHDRSummaryFormat(t *testing.T) {
	var h HDR
	h.Observe(10)
	h.Observe(20)
	want := fmt.Sprintf("n=2 p50=%d p99=%d p999=%d max=20", h.P50(), h.P99(), h.P999())
	if h.Summary() != want {
		t.Fatalf("summary = %q", h.Summary())
	}
}
