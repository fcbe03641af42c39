package experiments

import (
	"runtime"
	"testing"
	"time"
)

// TestA14LeavesNothingResident: each A14 mode closes its engine when it
// is done, so no task goroutine outlives the run and the dropped clusters
// (kernels, page stores, images) can be collected. Without Close, this
// run leaves 167 parked goroutines pinning about 48 MiB of live heap.
func TestA14LeavesNothingResident(t *testing.T) {
	const maxGrowth = 4 << 20 // bytes of live heap the run may leave behind
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base, before := runtime.NumGoroutine(), liveHeap()
	if _, err := A14Dedup(A14Config{
		Hosts: 16, Replicas: 6, DataKiB: 384, Seed: 7, MinBytesRatio: 1.2,
	}); err != nil {
		t.Fatal(err)
	}
	// A task's goroutine tells Close it is done just before it returns.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after A14, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
	if grown := liveHeap() - before; grown > maxGrowth {
		t.Fatalf("live heap grew %.1f MiB across A14, bound %.1f MiB",
			float64(grown)/(1<<20), float64(maxGrowth)/(1<<20))
	}
}
