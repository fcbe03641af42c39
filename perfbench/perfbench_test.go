package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func unitOf(ms []metric, name string) string {
	for _, m := range ms {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// runTiny runs one test-sized repetition of a workload in this process.
func runTiny(t *testing.T, name string, seed uint64, o options, traced bool) (*repResult, error) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	var prof *profiler
	if traced {
		prof = &profiler{dir: t.TempDir()}
	}
	o.tiny = true
	res, err := w.run(newRep(prof), seed, o)
	if err == nil && prof != nil {
		res.CPU, res.AllocBy, err = prof.end()
	}
	return res, err
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	var e2e []metric
	for _, n := range guarded {
		e2e = append(e2e, metric{n, unitOf(endToEnd, n)})
	}
	if !reflect.DeepEqual(b.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, want %v", b.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from perLayer():\n%v\n%v", b.PerLayer, perLayer())
	}
}

// TestEveryMetricEmitted runs each workload once, traced, and checks
// that every end-to-end metric that applies to it and every per-layer
// metric is reported with its unit, and that the CPU shares account for
// every sample.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTiny(t, w.name, 3, options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.CPU) == 0 {
				t.Skip("the repetition was too short to take a CPU sample")
			}
			e2e, layer, phases, err := summarize(&w, []*repResult{res}, []*repResult{res})
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, v := range append(append(e2e, layer...), phases...) {
				got[v.Name] = v.Unit
			}
			want := append([]string{"setup_s", "wall_s", "wall_ms_per_sim_s", "heap_peak_mb", "alloc_mb"}, w.sims...)
			for _, n := range want {
				if got[n] != unitOf(endToEnd, n) {
					t.Errorf("%s reported with unit %q, want %q", n, got[n], unitOf(endToEnd, n))
				}
			}
			for _, m := range perLayer() {
				if got[m.Name] != m.Unit {
					t.Errorf("%s reported with unit %q, want %q", m.Name, got[m.Name], m.Unit)
				}
			}
			if len(phases) == 0 {
				t.Error("no phase times reported")
			}
			var sum float64
			for _, v := range layer {
				if unitOf(perLayer(), v.Name) == "frac" {
					sum += v.Value
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("cpu shares sum to %v", sum)
			}
		})
	}
}

// TestSeedReplays checks that one seed replays every simulated metric
// and work count exactly, and that another seed changes them.
func TestSeedReplays(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []*repResult
			for _, seed := range []uint64{5, 5, 6} {
				res, err := runTiny(t, w.name, seed, options{}, false)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, res)
			}
			if err := sameReplay(runs[0], runs[1]); err != nil {
				t.Errorf("same seed: %v", err)
			}
			if sameReplay(runs[0], runs[2]) == nil {
				t.Error("a different seed replayed the same history")
			}
		})
	}
}

// TestSabotageFailsGate checks that broken runs fail a gate instead of
// reporting: a replica killed behind the controller, and clients whose
// offered load exceeds the server's CPU.
func TestSabotageFailsGate(t *testing.T) {
	for _, s := range []string{"kill-replica", "starve-load"} {
		t.Run(s, func(t *testing.T) {
			res, err := runTiny(t, "sli-drain", 3, options{sabotage: s}, false)
			if !isGate(err) {
				t.Fatalf("sabotaged run returned %v, %v; want a failed gate", res, err)
			}
			t.Log(err)
		})
	}
}

// TestLayerOf checks the stack bucketing rules.
func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "procmig/internal/vm.(*CPU).Step", "procmig/internal/sim.(*Engine).GoAfter.func1"}, "vm"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "procmig/internal/core.(*StreamSession).sendPage"}, "runtime.gc"},
		{[]string{"procmig/internal/kernel.(*Machine).FindProc", "main.(*replicaSet).running", "main.(*rep).bench", "main.runSLI"}, "bench"},
		{[]string{"procmig/internal/vm/asm.Assemble", "main.main"}, "vm"},
		{[]string{"procmig/internal/aout.Decode"}, "other"},
		{[]string{"runtime/pprof.profileWriter"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
