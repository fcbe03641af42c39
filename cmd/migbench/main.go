// Command migbench regenerates the paper's evaluation (§6) and prints
// each figure as a table, paper value beside measured value, plus the
// DESIGN.md ablations.
//
// Usage:
//
//	migbench            # everything
//	migbench -fig 2     # one figure
//	migbench -fig a6    # the pre-copy ablation table
//	migbench -fig a7    # migration under network faults
//	migbench -fig a8    # crash recovery from buddy checkpoints
//	migbench -fig a9    # wire-efficiency ablation (raw vs elide vs elide+LZ)
//	migbench -fig a10   # observability: stitched trace + zero-alloc instrumentation
//	migbench -fig a11   # 1,000-host scale scenario; writes BENCH_a11.json
//	migbench -fig a12   # multi-seed chaos sweep (scenario DSL + invariants)
//	migbench -fig a13   # declarative controller at 200 hosts; writes BENCH_a13.json
//	migbench -fig a14   # cluster page store: mass-drain dedup; writes BENCH_a14.json
//	migbench -fig a15   # client-visible SLI plane under a drain; writes BENCH_a15.json
//	migbench -fig core  # engine + data-path perf; writes BENCH_core.json
//	migbench -ablations # only the ablations
//
// The a11 scenario takes -hosts, -procs, -intervals and -seed; a13
// reuses -hosts (0 = its default 200) and -seed; the perf figures write
// their JSON trajectories next to -benchdir. The a12 sweep
// takes -seeds (count, default 20) and -seed (base); alternatively
// -schedule <file> runs one scenario table from JSON, and
// -replay <artifact> re-runs a failure artifact emitted by a previous
// sweep. A failing a12 run writes CHAOS_REPLAY.json next to -benchdir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"procmig/internal/experiments"
	"procmig/internal/scenario"
	"procmig/internal/sim"
)

var (
	a11Hosts     = flag.Int("hosts", 0, "a11: cluster size (0 = default 1000)")
	a11Procs     = flag.Int("procs", 0, "a11: simulated processes (0 = default 10000)")
	a11Intervals = flag.Int("intervals", 0, "a11: beacon intervals to run (0 = default 30)")
	a11Seed      = flag.Uint64("seed", 0, "a11: engine seed (0 = default 11); a12: base seed (0 = default 1)")
	benchDir     = flag.String("benchdir", ".", "directory BENCH_*.json files are written to")
	a12Seeds     = flag.Int("seeds", 0, "a12: number of consecutive chaos seeds to sweep (0 = default 20)")
	a12Schedule  = flag.String("schedule", "", "a12: run one scenario table from this JSON file instead of sweeping")
	a12Replay    = flag.String("replay", "", "a12: re-run a failure artifact written by a previous sweep")
)

// figure is one row of the shared figure table: everything -fig accepts,
// with the run function and the one-line description the usage error
// prints. Adding a figure here is the whole registration.
type figure struct {
	name string
	desc string
	run  func() error
}

var figures = []figure{
	{"1", "modified system call overhead", fig1},
	{"2", "killing the test program (SIGQUIT/SIGDUMP/dumpproc)", fig2},
	{"3", "restarting (execve/rest_proc/restart)", fig3},
	{"4", "migrate vs dumpproc+restart", fig4},
	{"a6", "stop-and-copy vs streaming vs pre-copy", a6},
	{"a7", "transactional migration under network faults", a7},
	{"a8", "crash recovery from buddy delta-checkpoints", a8},
	{"a9", "wire-efficient streaming ablation", a9},
	{"a10", "observability: stitched traces, zero-alloc counters", a10},
	{"a11", "1,000-host scale scenario (writes BENCH_a11.json)", a11},
	{"a12", "multi-seed chaos sweep (-seeds/-schedule/-replay)", a12},
	{"a13", "declarative controller: rollout, crash-wave heal, rolling drain (writes BENCH_a13.json)", a13},
	{"a14", "cluster page store: mass drain raw vs session vs store dedup (writes BENCH_a14.json)", a14},
	{"a15", "cluster SLI plane: client p99 + stall blame, stop vs precopy vs store (writes BENCH_a15.json)", a15},
	{"core", "engine + data-path perf (writes BENCH_core.json)", benchCore},
}

func main() {
	fig := flag.String("fig", "", "run only this figure (see the table in -h)")
	ablations := flag.Bool("ablations", false, "run only the ablations")
	flag.Parse()

	// The a12 mode flags are mutually exclusive and only meaningful with
	// -fig a12; a silent misfire would masquerade as a passing sweep.
	if (*a12Schedule != "" || *a12Replay != "" || *a12Seeds != 0) && *fig != "a12" {
		usageErr("-seeds/-schedule/-replay require -fig a12")
	}
	if *a12Schedule != "" && *a12Replay != "" {
		usageErr("-schedule and -replay are mutually exclusive")
	}
	if *a12Seeds != 0 && (*a12Schedule != "" || *a12Replay != "") {
		usageErr("-seeds only applies to the sweep, not -schedule/-replay")
	}

	if *fig != "" {
		for _, f := range figures {
			if f.name == *fig {
				check(f.run())
				return
			}
		}
		fmt.Fprintf(os.Stderr, "migbench: unknown figure %q; valid figures:\n", *fig)
		for _, f := range figures {
			fmt.Fprintf(os.Stderr, "  %-5s %s\n", f.name, f.desc)
		}
		os.Exit(2)
	}
	if *ablations {
		check(runAblations())
		return
	}
	for _, f := range figures {
		check(f.run())
	}
	check(runAblations())
}

// writeBench records a perf trajectory point: the JSON files are committed
// alongside the code, so `git log -p BENCH_a11.json` is the perf history.
func writeBench(name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*benchDir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func a11() error {
	r, err := experiments.A11Scale(experiments.A11Config{
		Hosts: *a11Hosts, Procs: *a11Procs, Intervals: *a11Intervals, Seed: *a11Seed,
	})
	if err != nil {
		return err
	}
	header(fmt.Sprintf("A11 — %d hosts, %d procs under churn: gossip membership + crash wave", r.Hosts, r.Procs))
	fmt.Printf("%-44s %d peers/interval (up to k news summaries per beacon)\n", "gossip fanout k", r.GossipK)
	fmt.Printf("%-44s %.0f (full mesh would be %.0f; %d boot syncs, %d sync bytes)\n",
		"hb msgs/interval", r.HBMsgsPerInterval, r.FullMeshMsgsPerInterval, r.SyncMsgs, r.SyncBytes)
	fmt.Printf("%-44s %d intervals\n", "membership converged in", r.ConvergedIn)
	fmt.Printf("%-44s %d/%d suspected, %d/%d recovered\n",
		"crash wave", r.WaveSuspected, r.WaveSize, r.WaveRecovered, r.WaveSize)
	fmt.Printf("%-44s %d (%d false suspects)\n", "churn migrations", r.Migrations, r.FalseSuspects)
	fmt.Printf("%-44s %.2f s wall for %.0f s virtual (%.1fx real time)\n",
		"wall clock", r.Wall, r.VirtualTime, r.VirtualRatio)
	fmt.Printf("%-44s %.2fM events/s, %.4f allocs/event, heap max %d\n",
		"engine", r.EventsPerSec/1e6, r.AllocsPerEvent, r.HeapMax)
	return writeBench("BENCH_a11.json", r)
}

func a13() error {
	r, err := experiments.A13Controller(experiments.A13Config{
		Hosts: *a11Hosts, Seed: *a11Seed,
	})
	if err != nil {
		return err
	}
	header(fmt.Sprintf("A13 — declarative controller on %d hosts: %d service + %d batch replicas",
		r.Hosts, r.Replicas, r.Batch))
	fmt.Printf("%-44s %.0f s virtual, %d reconcile rounds\n", "rollout converged in", r.ConvergeS, r.ConvergeRounds)
	fmt.Printf("%-44s %d hosts, %d replicas lost, %d respawned\n",
		"crash wave", r.CrashWave, r.ReplicasLost, r.Respawns)
	fmt.Printf("%-44s %.0f s virtual, %d rounds\n", "crash wave healed in", r.HealS, r.HealRounds)
	fmt.Printf("%-44s %s: %d moves in %d waves, %.1f s makespan\n",
		"rolling drain", r.DrainHost, r.DrainMoves, r.DrainWaves, r.DrainS)
	fmt.Printf("%-44s %d running, deficit %d (audited from the kernels)\n",
		"final census", r.FinalReplicas, r.FinalDeficit)
	fmt.Printf("%-44s %.2f s wall for %.0f s virtual (%d events, %.2fM events/s)\n",
		"wall clock", r.Wall, r.VirtualTime, r.Events, r.EventsPerSec/1e6)
	return writeBench("BENCH_a13.json", r)
}

func a14() error {
	r, err := experiments.A14Dedup(experiments.A14Config{
		Hosts: *a11Hosts, Seed: *a11Seed,
	})
	if err != nil {
		return err
	}
	header(fmt.Sprintf("A14 — cluster page store: mass drain of %d identical replicas (%d KiB each) at %d hosts",
		r.Replicas, r.DataKiB, r.Hosts))
	for _, m := range []*experiments.A14Mode{&r.Raw, &r.Session, &r.Store} {
		fmt.Printf("%-44s %.1f s drain (%d waves, %d moves), %.1f MiB shipped\n",
			m.Mode, m.DrainS, m.DrainWaves, m.DrainMoves,
			float64(m.DrainBytes)/(1<<20))
	}
	fmt.Printf("%-44s %d refs, %d nacked, %d store hits, %d evictions\n",
		"store mode speculation", r.Store.SpecPages, r.Store.SpecNacks,
		r.Store.StoreHits, r.Store.StoreEvict)
	fmt.Printf("%-44s %.1fx fewer drain bytes, %.2fx drain speedup vs session dedup\n",
		"headline", r.DrainBytesRatio, r.DrainSpeedup)
	fmt.Printf("%-44s %d lost, %d adopted, %d respawned, %.0f s heal, %.1f MiB ckpt traffic\n",
		"crash wave (store mode)", r.Store.Lost, r.Store.Adoptions, r.Store.Respawns,
		r.Store.HealS, float64(r.Store.CkptBytes)/(1<<20))
	fmt.Printf("%-44s %.2f s wall for %.0f s virtual (%d events, %.2fM events/s)\n",
		"wall clock", r.Wall, r.VirtualTime, r.Events, r.EventsPerSec/1e6)
	return writeBench("BENCH_a14.json", r)
}

func a15() error {
	r, err := experiments.A15SLI(experiments.A15Config{
		Hosts: *a11Hosts, Seed: *a11Seed,
	})
	if err != nil {
		return err
	}
	header(fmt.Sprintf("A15 — client-visible latency under a drain: %d replicas (%d KiB each) at %d hosts",
		r.Replicas, r.DataKiB, r.Hosts))
	fmt.Printf("%-10s %10s %10s %10s %10s %8s %8s %10s\n",
		"mode", "p50 µs", "p99 µs", "p999 µs", "max µs", "requests", "dropped", "drain s")
	for _, m := range []*experiments.A15Mode{&r.Stop, &r.Precopy, &r.Store} {
		fmt.Printf("%-10s %10d %10d %10d %10d %8d %8d %10.1f\n",
			m.Mode, m.P50us, m.P99us, m.P999us, m.MaxUs, m.Completed, m.Dropped, m.DrainS)
	}
	fmt.Printf("%-44s %.1fx lower client p99 than stop-and-copy\n", "headline (store)", r.P99Ratio)
	for _, m := range []*experiments.A15Mode{&r.Stop, &r.Precopy, &r.Store} {
		for _, b := range m.Blame {
			fmt.Printf("  blame %-8s %-12s %4d requests, %8d µs stalled (worst %d µs)\n",
				m.Mode, b.Phase, b.Count, int64(b.Stall), int64(b.Max))
		}
	}
	fmt.Println("(open-loop clients keep submitting while the server is frozen, so the tail")
	fmt.Println(" is honest; each SLO-breaching request is blamed on the migration-phase span")
	fmt.Println(" it overlapped — 'queued' means it stalled behind the backlog, not a phase)")
	return writeBench("BENCH_a15.json", r)
}

func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "migbench:", msg)
	flag.Usage()
	os.Exit(2)
}

// a12 runs the chaos harness: by default a multi-seed sweep of generated
// schedules, or one scenario table (-schedule) or failure artifact
// (-replay). Any invariant violation writes CHAOS_REPLAY.json next to
// -benchdir and fails the run with the one-command reproduction.
func a12() error {
	if *a12Replay != "" {
		art, err := scenario.LoadArtifact(*a12Replay)
		if err != nil {
			return err
		}
		header(fmt.Sprintf("A12 — replaying %s (seed %d)", *a12Replay, art.Scenario.Seed))
		fmt.Printf("original violation: %v\n", art.Violation)
		res, err := art.Replay()
		if err != nil {
			return err
		}
		if v := res.FirstViolation(); v != nil {
			fmt.Printf("reproduced:         %v\n", v)
			return fmt.Errorf("a12: artifact still fails")
		}
		fmt.Println("replay passed — the failure no longer reproduces")
		return nil
	}
	if *a12Schedule != "" {
		raw, err := os.ReadFile(*a12Schedule)
		if err != nil {
			return err
		}
		sc, err := scenario.Decode(raw)
		if err != nil {
			return err
		}
		header(fmt.Sprintf("A12 — scenario %q (seed %d, %d events)", sc.Name, sc.Seed, len(sc.Events)))
		res, err := scenario.Run(sc)
		if err != nil {
			return err
		}
		return a12Report(sc, res)
	}

	base, n := *a11Seed, *a12Seeds
	if base == 0 {
		base = 1
	}
	if n == 0 {
		n = 20
	}
	pts, art, err := experiments.A12ChaosSweep(base, n)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("A12 — chaos sweep: %d seeded schedules (partitions, crash storms, herds)", n))
	fmt.Printf("%-8s %8s %12s %12s %12s %s\n", "seed", "events", "migrations", "committed", "recoveries", "invariants")
	for _, pt := range pts {
		verdict := "all hold"
		if !pt.Passed {
			verdict = "VIOLATED: " + pt.Violation
		}
		fmt.Printf("%-8d %8d %12d %12d %12d %s\n",
			pt.Seed, pt.Events, pt.Migrations, pt.Committed, pt.Recoveries, verdict)
	}
	if art != nil {
		path := filepath.Join(*benchDir, "CHAOS_REPLAY.json")
		if werr := art.WriteFile(path); werr != nil {
			return werr
		}
		return fmt.Errorf("a12: seed %d violated %s — reproduce with: migbench -fig a12 -replay %s",
			art.Scenario.Seed, art.Violation.Invariant, path)
	}
	fmt.Printf("(%d seeds, every event checked for exactly-one-live-copy, conservation,\n", n)
	fmt.Println(" split-brain, counter monotonicity; membership convergence at quiesce)")
	return nil
}

// a12Report prints one scenario run and emits the replay artifact if an
// invariant failed.
func a12Report(sc *scenario.Scenario, res *scenario.Result) error {
	fmt.Printf("%-44s %d of %d\n", "events executed", res.Events, len(sc.Events))
	for _, m := range res.Migrations {
		outcome := "aborted"
		if m.Committed {
			outcome = "committed"
		}
		fmt.Printf("%-44s %s -> %s %s (freeze %v, total %v)\n",
			"migration "+m.Workload, m.From, m.To, outcome, m.Freeze, m.Total)
	}
	for _, rec := range res.Recoveries {
		fmt.Printf("%-44s buddy %s, %d ckpts, recovery %v, lost work %v\n",
			"recovery "+rec.Workload, rec.Buddy, rec.Checkpoints, rec.Recovery, rec.LostWork)
	}
	if v := res.FirstViolation(); v != nil {
		path := filepath.Join(*benchDir, "CHAOS_REPLAY.json")
		if err := scenario.NewArtifact(sc, res).WriteFile(path); err != nil {
			return err
		}
		return fmt.Errorf("a12: %v — reproduce with: migbench -fig a12 -replay %s", v, path)
	}
	fmt.Println("all invariants hold")
	return nil
}

func benchCore() error {
	r, err := experiments.BenchCore()
	if err != nil {
		return err
	}
	header("Core — engine churn throughput and migration data-path wall times")
	fmt.Printf("%-44s %.2fM events/s (%d events in %.2f s)\n",
		"engine churn", r.ChurnEventsPerSec/1e6, r.ChurnEvents, r.ChurnWallS)
	fmt.Printf("%-44s %.4f (%d freelist misses)\n", "allocs/event", r.AllocsPerEvent, r.ChurnEventAllocs)
	fmt.Printf("%-44s %d of %d dispatches\n", "goroutine switches", r.ChurnSwitches, r.ChurnEvents)
	fmt.Printf("%-44s %.2f s\n", "A6 pre-copy sweep wall", r.A6WallS)
	fmt.Printf("%-44s %.2f s\n", "A9 wire ablation wall", r.A9WallS)
	return writeBench("BENCH_core.json", r)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "migbench:", err)
		os.Exit(1)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(title)
	for range title {
		fmt.Print("-")
	}
	fmt.Println()
}

func fig1() error {
	r, err := experiments.Fig1()
	if err != nil {
		return err
	}
	header("Figure 1 — performance of modified system calls (normalized to unmodified kernel)")
	fmt.Printf("%-28s %8s %10s %14s %14s\n", "system call", "paper", "measured", "base (sim)", "tracked (sim)")
	fmt.Printf("%-28s %8.2f %10.2f %14v %14v\n",
		"open()/close() ×100", 1.44, r.OpenCloseOverhead(), r.OpenCloseBase, r.OpenCloseTracked)
	fmt.Printf("%-28s %8.2f %10.2f %14v %14v\n",
		"chdir() ×100 sets of 3", 1.36, r.ChdirOverhead(), r.ChdirBase, r.ChdirTracked)
	return nil
}

func fig2() error {
	r, err := experiments.Fig2()
	if err != nil {
		return err
	}
	header("Figure 2 — killing the test program: SIGQUIT vs SIGDUMP vs dumpproc (normalized to SIGQUIT)")
	fmt.Printf("%-12s %12s %12s %12s %12s %14s %14s\n",
		"method", "paper cpu", "meas cpu", "paper real", "meas real", "cpu (sim)", "real (sim)")
	fmt.Printf("%-12s %12.1f %12.2f %12.1f %12.2f %14v %14v\n",
		"SIGQUIT", 1.0, 1.0, 1.0, 1.0, r.QuitCPU, r.QuitReal)
	fmt.Printf("%-12s %12s %12.2f %12s %12.2f %14v %14v\n",
		"SIGDUMP", "≈3", r.DumpCPURatio(), "≈3", r.DumpRealRatio(), r.DumpCPU, r.DumpReal)
	fmt.Printf("%-12s %12s %12.2f %12s %12.2f %14v %14v\n",
		"dumpproc", "≈4", r.DumpprocCPURatio(), "≈6", r.DumpprocRealRatio(), r.DumpprocCPU, r.DumpprocReal)
	return nil
}

func fig3() error {
	r, err := experiments.Fig3()
	if err != nil {
		return err
	}
	header("Figure 3 — restarting: execve vs rest_proc vs restart (normalized to execve)")
	fmt.Printf("%-12s %12s %12s %12s %12s %14s %14s\n",
		"method", "paper cpu", "meas cpu", "paper real", "meas real", "cpu (sim)", "real (sim)")
	fmt.Printf("%-12s %12.1f %12.2f %12.1f %12.2f %14v %14v\n",
		"execve()", 1.0, 1.0, 1.0, 1.0, r.ExecveCPU, r.ExecveReal)
	fmt.Printf("%-12s %12s %12.2f %12s %12.2f %14v %14v\n",
		"rest_proc()", ">1", r.RestProcCPURatio(), ">1", r.RestProcRealRatio(), r.RestProcCPU, r.RestProcReal)
	fmt.Printf("%-12s %12s %12.2f %12s %12.2f %14v %14v\n",
		"restart", "≈5", r.RestartCPURatio(), "≈6", r.RestartRealRatio(), r.RestartCPU, r.RestartReal)
	return nil
}

func fig4() error {
	cases, err := experiments.Fig4()
	if err != nil {
		return err
	}
	header("Figure 4 — migrate vs dumpproc+restart run separately (real time, normalized)")
	fmt.Printf("%-8s %12s %10s %16s %18s %10s %12s\n",
		"case", "paper", "measured", "migrate (sim)", "separate (sim)", "net msgs", "net bytes")
	paper := map[string]string{"L→L": "≈1", "L→R": "mid", "R→L": "mid", "R→R": "up to ≈10"}
	for _, fc := range cases {
		fmt.Printf("%-8s %12s %10.2f %16v %18v %10d %12d\n",
			fc.Name, paper[fc.Name], fc.Ratio(), fc.MigrateReal, fc.SeparateReal,
			fc.NetMsgs, fc.NetBytes)
	}
	fmt.Println("(L/R are relative to the machine migrate is typed on; the R→R case is the")
	fmt.Println(" paper's \"almost half a minute\" scenario, dominated by rsh connection setup;")
	fmt.Println(" net columns count every message and payload byte during the migrate run)")
	return nil
}

func a6() error {
	pts, err := experiments.A6Precopy()
	if err != nil {
		return err
	}
	header("A6 — stop-and-copy vs streaming vs pre-copy (fmigrate -s), per image size")
	fmt.Printf("%-10s %-9s %12s %12s %12s %12s\n",
		"image/ws", "mode", "freeze (sim)", "total (sim)", "dest NFS B", "net bytes")
	for _, pt := range pts {
		fmt.Printf("%-10s %-9s %12v %12v %12d %12d\n",
			pt.Label, "stop", pt.StopFreeze, pt.StopTotal, pt.StopDestNFS, pt.StopNetBytes)
		fmt.Printf("%-10s %-9s %12v %12v %12d %12d\n",
			"", "stream", pt.StreamFreeze, pt.StreamTotal, pt.StreamDestNFS, pt.StreamNetBytes)
		fmt.Printf("%-10s %-9s %12v %12v %12d %12d\n",
			"", "pre-copy", pt.PreFreeze, pt.PreTotal, pt.PreDestNFS, pt.PreNetBytes)
	}
	fmt.Println("(freeze: source kernel's dump window, the whole unavailable time on every")
	fmt.Println(" path — streaming: final transfer + destination spool + restart; stop:")
	fmt.Println(" dump files + the frozen wait for the destination's restart ACK)")
	return nil
}

// runCell runs one A7/A8 table cell. Any scenario invariant violation —
// above all a second live copy, or none — fails the figure.
func runCell(sc *scenario.Scenario) (*scenario.Result, error) {
	res, err := scenario.Run(sc)
	if err != nil {
		return nil, err
	}
	if v := res.FirstViolation(); v != nil {
		return nil, fmt.Errorf("%s: %v", sc.Name, v)
	}
	return res, nil
}

// faultLabel names the network fault a table cell injects, read from its
// schedule: a scripted mid-transfer crash or a per-port drop rate.
func faultLabel(sc *scenario.Scenario) string {
	for _, ev := range sc.Events {
		switch ev.Op {
		case "crash_after":
			return "mid crash"
		case "fault_port":
			return fmt.Sprintf("drop %.0f%%", ev.Drop*100)
		}
	}
	return "drop 0%"
}

func a7() error {
	header("A7 — transactional migration under network faults (rmigrate -s -r 2, seed 1)")
	fmt.Printf("%-10s %-10s %10s %10s %12s %12s %6s\n",
		"image/ws", "fault", "outcome", "copy on", "freeze (sim)", "total (sim)", "live")
	for _, sc := range scenario.A7Tables(1) {
		res, err := runCell(sc)
		if err != nil {
			return err
		}
		mig, wl := res.Migrations[0], res.Workloads["hog"]
		if mig.Committed != wl.Migrated {
			return fmt.Errorf("%s: committed=%v but migrated=%v", sc.Name, mig.Committed, wl.Migrated)
		}
		outcome, where := "aborted", "source"
		if mig.Committed {
			outcome, where = "committed", "dest"
		}
		hog := sc.Workloads[0]
		fmt.Printf("%-10s %-10s %10s %10s %12v %12v %6d\n",
			fmt.Sprintf("%dK/%dK", hog.TotalBytes>>10, hog.WSBytes>>10), faultLabel(sc),
			outcome, where, mig.Freeze, mig.Total, wl.LiveCopies)
	}
	fmt.Println("(every row must end with exactly one live copy — the figure fails otherwise;")
	fmt.Println(" 'mid crash' kills the destination on a scripted mid-round stream message,")
	fmt.Println(" the transaction aborts, and the source resumes the original)")
	return nil
}

// a8BoundSlack covers the measurement slop in A8's lost-work bound: the
// crash-scheduling poll granularity and the instants where the victim is
// frozen inside an in-flight transfer (frozen time does no work, so it
// never adds to the counter gap — only to the wall-clock conversion).
const a8BoundSlack = 2 * sim.Second

func a8() error {
	header("A8 — crash recovery from buddy delta-checkpoints (guardd, seed 1)")
	fmt.Printf("%-10s %-10s %6s %14s %14s %6s %6s\n",
		"ckpt ivl", "fault", "ckpts", "recovery (sim)", "lost work", "bound", "live")
	for _, sc := range scenario.A8Tables(1) {
		res, err := runCell(sc)
		if err != nil {
			return err
		}
		rec, wl := res.Recoveries[0], res.Workloads["hog"]
		iv := sc.HA.CkptInterval
		if !rec.Resumed {
			return fmt.Errorf("%s: restart status nonzero", sc.Name)
		}
		if rec.LostWork > iv+a8BoundSlack {
			return fmt.Errorf("%s: lost work %v exceeds interval %v + slack", sc.Name, rec.LostWork, iv)
		}
		fmt.Printf("%-10v %-10s %6d %14v %14v %6s %6d\n",
			iv, faultLabel(sc), rec.Checkpoints, rec.Recovery, rec.LostWork, "ok", wl.LiveCopies)
	}
	fmt.Println("(each row crashes the source mid-interval; the buddy arbitrates over the")
	fmt.Println(" migd transaction port before restarting the newest committed checkpoint;")
	fmt.Println(" every row must end with exactly one live copy and lost work inside one")
	fmt.Println(" checkpoint interval — the figure fails otherwise)")
	return nil
}

func a9() error {
	pts, err := experiments.A9Wire()
	if err != nil {
		return err
	}
	header("A9 — wire-efficient streaming: raw vs elide vs elide+LZ, per entropy/dirty-rate")
	fmt.Printf("%-8s %6s %-6s %10s %10s %12s %7s %20s\n",
		"entropy", "dirty", "mode", "wire B", "saved B", "freeze (sim)", "rounds", "pages z/ref/lz/raw")
	for _, pt := range pts {
		for _, run := range []experiments.A9Run{pt.Raw, pt.Elide, pt.LZ} {
			fmt.Printf("%-8s %5d%% %-6s %10d %10d %12v %7d %20s\n",
				pt.Config.Entropy, pt.Config.DirtyPct, run.Mode.String(),
				run.WireBytes, run.SavedBytes, run.Freeze, run.Rounds,
				fmt.Sprintf("%d/%d/%d/%d", run.PagesZero, run.PagesRef, run.PagesLZ, run.PagesRaw))
		}
	}
	fmt.Println("(same image, same seeded dirty schedule, same rounds in every mode; the")
	fmt.Println(" restored images are verified bit-identical, so the byte and freeze columns")
	fmt.Println(" are pure encoding effects; elide+LZ never exceeds raw by construction)")
	return nil
}

func runAblations() error {
	a1, err := experiments.A1NameStorage()
	if err != nil {
		return err
	}
	header("A1 — kernel memory for tracked pathnames: dynamic vs fixed MAXPATHLEN buffers (§5.1)")
	fmt.Printf("%d open files, mean name %.1f bytes: dynamic %d B, fixed %d B (%.0f× more)\n",
		a1.Files, a1.MeanNameLen, a1.DynamicPeak, a1.FixedPeak, a1.SavingFactor)

	a2, err := experiments.A2Migd()
	if err != nil {
		return err
	}
	header("A2 — rsh-based migrate vs the §6.4 migration daemon (remote→remote)")
	fmt.Printf("rsh migrate %v; migd fmigrate %v; speedup %.1f×\n",
		a2.RshMigrate, a2.FastMigrate, a2.Speedup)

	a3, err := experiments.A3PollInterval()
	if err != nil {
		return err
	}
	header("A3 — dumpproc poll policy (paper: sleep 1 s between attempts)")
	fmt.Printf("%-16s %12s %12s\n", "policy", "real (sim)", "cpu (sim)")
	for _, p := range a3 {
		fmt.Printf("%-16s %12v %12v\n", p.Label, p.Real, p.CPU)
	}

	a4, err := experiments.A4Checkpoint()
	if err != nil {
		return err
	}
	header("A4 — checkpointing overhead on a ~40 s CPU job (§8)")
	for _, p := range a4 {
		fmt.Printf("%-20s plain %v → checkpointed %v (overhead %.1f%%)\n",
			p.Label, p.Plain, p.Ckpted, p.Overhead*100)
	}

	a5, err := experiments.A5LoadBalance()
	if err != nil {
		return err
	}
	header("A5 — load balancing 4 CPU jobs across 2 machines (§8)")
	fmt.Printf("unbalanced makespan %v; balanced %v (%d migrations, %.0f%% improvement)\n",
		a5.Unbalanced, a5.Balanced, a5.Migrations, a5.Improvement*100)

	e3, err := experiments.E3SocketMigration()
	if err != nil {
		return err
	}
	header("E3 — socket migration (§9 future work): datagram server migrated mid-stream")
	fmt.Printf("extension on:  %d/%d datagrams delivered; freeze window %v\n",
		e3.ReceivedWith, e3.Sent, e3.Freeze)
	if e3.BrokenWithout {
		fmt.Println("extension off: server loses its socket and fails (the paper's §7 behaviour)")
	}
	return nil
}

func a10() error {
	r, err := experiments.A10Observability()
	if err != nil {
		return err
	}
	header("A10 — observability: one stitched trace per migration, zero-alloc instrumentation")
	fmt.Printf("%-44s %s\n", "migration root spans (want exactly 1)", fmt.Sprint(r.Roots))
	fmt.Printf("%-44s %s (%s)\n", "root span", r.RootName, r.RootDetail)
	fmt.Printf("%-44s %d (client %d, source %d, dest %d)\n",
		"spans in the trace", r.Spans, r.ClientSpans, r.SourceSpans, r.DestSpans)
	fmt.Printf("%-44s %d events, parses: %v\n", "Chrome trace-event export", r.TimelineEvents, r.TimelineValid)
	fmt.Printf("%-44s %d\n", "metric rows in the registry", r.MetricRows)
	fmt.Printf("%-44s %.1f -> %.1f allocs/round\n",
		"steady-state SendRound, base -> instrumented", r.AllocsBase, r.AllocsObs)
	if r.AllocsObs > 2 {
		return fmt.Errorf("a10: instrumented send path allocates %.1f/round, want <=2", r.AllocsObs)
	}
	fmt.Println("(the instrumented path pre-resolves every counter to a pointer, so the")
	fmt.Println(" steady-state send loop adds no heap allocations over the bare path)")
	return nil
}
