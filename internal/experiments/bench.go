package experiments

// Core perf trajectory: the numbers BENCH_core.json records from one
// change to the next. A11 measures the cluster-scale scenario; this file
// measures the substrate under it — raw engine event throughput and the
// wall cost of the two heaviest single-migration experiments — so a
// regression in either layer shows up in the committed benchmark files
// even when the other layer masks it.

import (
	"time"

	"procmig/internal/sim"
)

// CoreBench is everything migbench writes to BENCH_core.json.
type CoreBench struct {
	ChurnEvents       int64   `json:"churn_events"`
	ChurnWallS        float64 `json:"churn_wall_s"`
	ChurnEventsPerSec float64 `json:"churn_events_per_sec"`
	ChurnEventAllocs  int64   `json:"churn_event_allocs"`
	AllocsPerEvent    float64 `json:"churn_allocs_per_event"`
	ChurnSwitches     int64   `json:"churn_switches"`
	A6WallS           float64 `json:"a6_wall_s"`
	A9WallS           float64 `json:"a9_wall_s"`
}

// benchChurn is the same schedule/wake/sleep storm BenchmarkEngineChurn
// times: actors ping-pong through a shared queue, mixing timer sleeps,
// timeouts that fire, and timeouts beaten by wakes — the event mix the
// engine sees under cluster churn.
func benchChurn(actors, rounds int) (*sim.Engine, error) {
	eng := sim.NewEngine()
	var q sim.Queue
	for i := 0; i < actors; i++ {
		eng.Go("churn", func(t *sim.Task) {
			for r := 0; r < rounds; r++ {
				t.Sleep(sim.Millisecond)
				var lonely sim.Queue
				t.WaitTimeout(&lonely, sim.Millisecond)
				q.Wake(1)
				t.WaitTimeout(&q, 10*sim.Millisecond)
				t.Yield()
			}
		})
	}
	eng.Go("drain", func(t *sim.Task) {
		for t.Now() < sim.Time(1000*sim.Second) {
			if q.WakeAll() == 0 && t.Now() > sim.Time(sim.Duration(rounds)*50*sim.Millisecond) {
				return
			}
			t.Sleep(5 * sim.Millisecond)
		}
	})
	return eng, eng.Run()
}

// BenchCore runs the substrate benchmarks: one warmup storm to populate
// the engine freelist, one timed storm for throughput, and timed A6/A9
// runs for the migration data path.
func BenchCore() (*CoreBench, error) {
	if _, err := benchChurn(32, 8); err != nil {
		return nil, err
	}
	start := time.Now()
	eng, err := benchChurn(512, 200)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	st := eng.Stats()
	r := &CoreBench{
		ChurnEvents:       st.Dispatched,
		ChurnWallS:        wall,
		ChurnEventsPerSec: float64(st.Dispatched) / wall,
		ChurnEventAllocs:  st.EventAllocs,
		AllocsPerEvent:    float64(st.EventAllocs) / float64(st.Dispatched),
		ChurnSwitches:     st.Switches,
	}

	start = time.Now()
	if _, err := A6Precopy(); err != nil {
		return nil, err
	}
	r.A6WallS = time.Since(start).Seconds()

	start = time.Now()
	if _, err := A9Wire(); err != nil {
		return nil, err
	}
	r.A9WallS = time.Since(start).Seconds()
	return r, nil
}
