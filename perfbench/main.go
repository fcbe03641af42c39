// Command perfbench is the migration simulator's benchmark. It drives
// three closed scenarios through the simulator's public API and reports
// what they cost the person running them (host set-up and wall time,
// memory) and what the modelled cluster's clients see (latency, freezes,
// detection and heal times, failures).
//
//	perfbench --workload sli-drain --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10
//
// A run repeats the workload, each repetition in a fresh child process,
// until --seconds have passed, and reports medians of the host figures.
// Simulated figures and work counts must come out identical in every
// repetition of a seed; a run where they do not, or where any correctness
// gate fails, exits non-zero without a result. With --trace 1 the run
// alternates plain and profiled repetitions and reports the per-layer
// metrics. Every metric is printed as "workload name value unit"; the
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Reports, spans and raw profiles are
// written under --out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// repResult is one repetition's measurements, passed from the child
// process to the parent as JSON.
type repResult struct {
	Setup     float64            `json:"setup_s"`
	Wall      float64            `json:"wall_s"`
	SimS      float64            `json:"sim_s"`
	HeapPeak  float64            `json:"heap_peak_mb"`
	Alloc     float64            `json:"alloc_mb"`
	PhaseWall map[string]float64 `json:"phase_wall_s"`
	Sim       map[string]float64 `json:"sim"`  // simulated end-to-end metrics
	Work      map[string]float64 `json:"work"` // per-layer work counts and ratios
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	CPU       map[string]int64   `json:"cpu_samples,omitempty"` // traced: samples per layer
	AllocBy   map[string]int64   `json:"alloc_bytes,omitempty"` // traced: bytes per layer
}

const (
	minPlain = 3 // untraced repetitions a run needs at least
	// runBudget bounds a whole run; no repetition starts that would
	// likely end past it.
	runBudget = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: sli-drain, dedup-drain, gossip-churn, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	secs := flag.Int("seconds", 10, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 adds profiled repetitions and reports per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for reports, spans and raw profiles")
	child := flag.String("child", "", "run one repetition in this process: plain or traced")
	flag.Parse()

	if *child != "" {
		if err := runChild(*name, *seed, *child == "traced", *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	type job struct {
		w     *workload
		trace bool
	}
	var jobs []job
	if *name == "all" {
		for _, trace := range []bool{false, true} {
			for i := range workloads {
				jobs = append(jobs, job{&workloads[i], trace})
			}
		}
	} else if w, ok := findWorkload(*name); ok && (*trace == 0 || *trace == 1) {
		jobs = append(jobs, job{w, *trace == 1})
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q or --trace %d\n", *name, *trace)
		os.Exit(2)
	}
	for _, j := range jobs {
		if err := measure(j.w, *seed, time.Duration(*secs)*time.Second, j.trace, *out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j.w.name, err)
			os.Exit(1)
		}
	}
}

// runChild runs one repetition and prints its result as JSON.
func runChild(name string, seed uint64, traced bool, dir string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var prof *profiler
	if traced {
		runtime.MemProfileRate = 16 << 10
		prof = &profiler{dir: dir}
	}
	r := newRep(prof)
	res, err := w.run(r, seed, options{})
	if err != nil {
		return err
	}
	if prof != nil {
		if res.CPU, res.AllocBy, err = prof.end(); err != nil {
			return err
		}
		spans, err := json.MarshalIndent(r.spans, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// measure runs one workload for d, alternating plain and traced
// repetitions when tracing, then prints and records the metrics.
func measure(w *workload, seed uint64, d time.Duration, trace bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(out, w.name, fmt.Sprintf("seed-%d", seed), fmt.Sprintf("trace-%d", b2i(trace)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runBudget))
	defer cancel()
	var plain, traced []*repResult
	var last time.Duration
	for i := 0; ; i++ {
		enough := len(plain) >= minPlain && (!trace || len(traced) >= 2)
		elapsed := time.Since(start)
		if enough && elapsed >= d {
			break
		}
		if elapsed+last > runBudget-10*time.Second {
			if enough {
				break
			}
			return fmt.Errorf("out of time after %d repetitions", i)
		}
		mode, repDir := "plain", dir
		if trace && len(traced) < len(plain) {
			mode, repDir = "traced", filepath.Join(dir, fmt.Sprintf("rep-%d", i))
		}
		t0 := time.Now()
		res, err := spawn(ctx, self, w.name, seed, mode, repDir)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", i, err)
		}
		last = time.Since(t0)
		if mode == "traced" {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	all := append(append([]*repResult(nil), plain...), traced...)
	for i, res := range all[1:] {
		if err := sameReplay(all[0], res); err != nil {
			return fmt.Errorf("seed %d did not replay in repetition %d: %w", seed, i+1, err)
		}
	}
	e2e, layer, phases, err := summarize(w, plain, traced)
	if err != nil {
		return err
	}
	var attempted, failed int64
	for _, res := range all {
		attempted += res.Attempted
		failed += res.Failed
	}
	report := map[string]any{
		"workload": w.name, "seed": seed, "trace": b2i(trace),
		"end_to_end": e2e, "per_layer": layer, "phases": phases, "reps": all,
	}
	if err := writeJSON(filepath.Join(dir, "report.json"), report); err != nil {
		return err
	}
	var lines []value
	lines = append(lines, e2e...)
	lines = append(lines, layer...)
	lines = append(lines, phases...)
	for _, v := range lines {
		fmt.Printf("%s %s %s %s\n", w.name, v.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	// The result line carries the metrics BENCHMARK.json lists: the
	// guarded end-to-end ones, or when tracing every per-layer one.
	final, want := e2e, guarded
	if trace {
		final, want = layer, nil
		for _, m := range perLayer() {
			want = append(want, m.Name)
		}
	}
	metrics := map[string]map[string]any{}
	for _, v := range final {
		if slices.Contains(want, v.Name) {
			metrics[v.Name] = map[string]any{"value": v.Value, "unit": v.Unit}
		}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("reported %d of %d metrics", len(metrics), len(want))
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawn runs one repetition in a child process and decodes its result.
func spawn(ctx context.Context, self, name string, seed uint64, mode, dir string) (*repResult, error) {
	cmd := exec.CommandContext(ctx, self, "--child", mode, "--workload", name,
		"--seed", strconv.FormatUint(seed, 10), "--out", dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// sameReplay checks that two repetitions of one seed simulated the same
// history: every simulated metric and work count equal.
func sameReplay(a, b *repResult) error {
	if !reflect.DeepEqual(a.Sim, b.Sim) {
		return fmt.Errorf("simulated metrics differ: %v vs %v", a.Sim, b.Sim)
	}
	if !reflect.DeepEqual(a.Work, b.Work) {
		for k, v := range a.Work {
			if b.Work[k] != v {
				return fmt.Errorf("work count %s differs: %v vs %v", k, v, b.Work[k])
			}
		}
		return errors.New("work counts differ")
	}
	return nil
}

// value is one reported metric.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize turns a run's repetitions into its metrics: medians of the
// host figures, the simulated figures (identical in every repetition)
// and, from traced repetitions, the per-layer metrics and phase times.
func summarize(w *workload, plain, traced []*repResult) (e2e, layer, phases []value, err error) {
	host := func(f func(*repResult) float64) float64 {
		vals := make([]float64, len(plain))
		for i, res := range plain {
			vals[i] = f(res)
		}
		return median(vals)
	}
	got := map[string]float64{
		"setup_s":           host(func(r *repResult) float64 { return r.Setup }),
		"wall_s":            host(func(r *repResult) float64 { return r.Wall }),
		"wall_ms_per_sim_s": host(func(r *repResult) float64 { return 1e3 * r.Wall / r.SimS }),
		"heap_peak_mb":      host(func(r *repResult) float64 { return r.HeapPeak }),
		"alloc_mb":          host(func(r *repResult) float64 { return r.Alloc }),
	}
	for _, name := range w.sims {
		v, ok := plain[0].Sim[name]
		if !ok {
			return nil, nil, nil, fmt.Errorf("workload did not report %s", name)
		}
		got[name] = v
	}
	for _, m := range endToEnd {
		if v, ok := got[m.Name]; ok {
			e2e = append(e2e, value{m.Name, v, m.Unit})
		}
	}
	var names []string
	for name := range plain[0].PhaseWall {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		phases = append(phases, value{"phase." + name + ".wall_s", host(func(r *repResult) float64 { return r.PhaseWall[name] }), "s"})
	}
	if len(traced) == 0 {
		return e2e, nil, phases, nil
	}

	samples := map[string]int64{}
	allocs := map[string]int64{}
	var total int64
	tracedWall := make([]float64, len(traced))
	for i, res := range traced {
		for k, v := range res.CPU {
			samples[k] += v
			total += v
		}
		for k, v := range res.AllocBy {
			if !slices.Contains(allocLayers, k) {
				k = "other"
			}
			allocs[k] += v
		}
		tracedWall[i] = res.Wall
	}
	if total == 0 {
		return nil, nil, nil, errors.New("the traced repetitions took no CPU samples")
	}
	lv := map[string]float64{
		"tracing.overhead_ratio": median(tracedWall) / got["wall_s"],
	}
	for _, l := range cpuLayers {
		lv[l+".cpu_share"] = float64(samples[l]) / float64(total)
	}
	for _, l := range allocLayers {
		lv[l+".alloc_mb"] = float64(allocs[l]) / float64(len(traced)) / mib
	}
	for k, v := range plain[0].Work {
		lv[k] = v
	}
	for _, m := range perLayer() {
		v, ok := lv[m.Name]
		if !ok {
			return nil, nil, nil, fmt.Errorf("no per-layer value for %s", m.Name)
		}
		layer = append(layer, value{m.Name, v, m.Unit})
	}
	return e2e, layer, phases, nil
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
