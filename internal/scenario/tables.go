package scenario

import (
	"fmt"

	"procmig/internal/apps"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// A7 and A8, the fault and recovery sweeps, are scenario tables. This
// file is their one definition: the matrices, the per-cell seeds and
// every step of a cell. migbench prints both figures from Run's results,
// and the golden tests in scenario_test.go pin every cell's seed-1
// numbers, so a change to a table's boot order, sleeps or PRNG draws
// moves a pinned number.

// cellSeed is the seed of a sweep's run-th cell (counting from 1).
func cellSeed(seed uint64, run int) uint64 { return seed + uint64(run)*0x9e3779b9 }

// A7Table is one cell of the A7 matrix (migration under network faults)
// as a scenario: a memory hog on alpha migrated to beta by a client on
// gamma while the migration ports drop/duplicate chunks, or while a
// scripted crash takes beta down mid-transfer.
func A7Table(totalBytes, wsBytes, dropPct int, crash bool, seed uint64) *Scenario {
	sc := &Scenario{
		Name:  fmt.Sprintf("a7-%dK/%dK-drop%d-crash%v", totalBytes>>10, wsBytes>>10, dropPct, crash),
		Seed:  seed,
		Hosts: []string{"alpha", "beta", "gamma"},
		Workloads: []Workload{
			{Name: "hog", Host: "alpha", Prog: "hog", Path: "/bin/a7hog",
				TotalBytes: totalBytes, WSBytes: wsBytes},
		},
	}
	ev := func(e Event) { sc.Events = append(sc.Events, e) }
	ev(Event{Op: "await_ready", Workload: "hog"})
	ev(Event{Op: "sleep", Dur: 2 * sim.Second})
	if crash {
		// The tenth stream-port message: past the hello and the first few
		// chunks, well inside round one of the pre-copy for every A7 size.
		ev(Event{Op: "crash_after", Host: "beta", Port: apps.MigdStreamPort, N: 10})
	} else if dropPct > 0 {
		for _, port := range []int{apps.MigdPort, apps.MigdPrecopyPort, apps.MigdStreamPort} {
			ev(Event{Op: "fault_port", Port: port,
				Drop: float64(dropPct) / 100, Dup: float64(dropPct) / 200})
		}
	}
	ev(Event{Op: "migrate", Workload: "hog", Host: "gamma", To: "beta",
		Stream: true, Rounds: "2", Chunks: 4})
	ev(Event{Op: "clear_faults"})
	ev(Event{Op: "sleep", Dur: 2 * sim.Second})
	return sc
}

// A7Tables builds the whole A7 sweep: two image sizes, kept small so the
// table is cheap enough to run per commit, each under four chunk-drop
// rates and one scripted crash.
func A7Tables(seed uint64) []*Scenario {
	sizes := []struct{ Total, WS int }{
		{64 << 10, 8 << 10},
		{256 << 10, 16 << 10},
	}
	drops := []int{0, 5, 10, 20}
	var out []*Scenario
	run := 0
	for _, sz := range sizes {
		for _, drop := range drops {
			run++
			out = append(out, A7Table(sz.Total, sz.WS, drop, false, cellSeed(seed, run)))
		}
		run++
		out = append(out, A7Table(sz.Total, sz.WS, 0, true, cellSeed(seed, run)))
	}
	return out
}

// A8Table is one cell of the A8 matrix (crash recovery from buddy
// delta-checkpoints) as a scenario: a counting hog on alpha protected
// with beta as buddy, control-plane ports dropping chunks, alpha crashed
// mid-interval, recovery awaited on the buddy.
//
// Membership convergence is skipped by design: the run quiesces one
// second after the crash, before every survivor need have probed alpha
// or heard the suspicion news, so the surviving hosts legitimately may
// still disagree about alpha.
func A8Table(interval sim.Duration, dropPct int, seed uint64) *Scenario {
	sc := &Scenario{
		Name:  fmt.Sprintf("a8-iv%s-drop%d", interval, dropPct),
		Seed:  seed,
		Hosts: []string{"alpha", "beta", "gamma"},
		HA:    &HAConfig{Interval: sim.Second, CkptInterval: interval},
		Workloads: []Workload{
			{Name: "hog", Host: "alpha", Prog: "counterhog", Path: "/bin/a8hog",
				TotalBytes: 32 << 10, WSBytes: 4 << 10},
		},
		Invariants: Invariants{SkipMembership: true},
	}
	ev := func(e Event) { sc.Events = append(sc.Events, e) }
	ev(Event{Op: "await_ready", Workload: "hog"})
	ev(Event{Op: "calibrate", Workload: "hog", Dur: 2 * sim.Second})
	if dropPct > 0 {
		for _, port := range []int{ha.HBPort, ha.GuardPort, ha.GuardSpoolPort, apps.MigdPort} {
			ev(Event{Op: "fault_port", Port: port,
				Drop: float64(dropPct) / 100, Dup: float64(dropPct) / 200})
		}
	}
	ev(Event{Op: "protect", Workload: "hog", To: "beta"})
	ev(Event{Op: "await_ckpt", Workload: "hog", N: 2})
	ev(Event{Op: "sleep", Dur: interval / 2})
	ev(Event{Op: "crash", Host: "alpha"})
	ev(Event{Op: "await_recovery", Workload: "hog"})
	ev(Event{Op: "sleep", Dur: sim.Second})
	return sc
}

// A8Tables builds the whole A8 sweep: checkpoint intervals × control-plane
// drop rates, one scripted crash each.
func A8Tables(seed uint64) []*Scenario {
	intervals := []sim.Duration{2 * sim.Second, 5 * sim.Second}
	drops := []int{0, 10, 20}
	var out []*Scenario
	run := 0
	for _, iv := range intervals {
		for _, drop := range drops {
			run++
			out = append(out, A8Table(iv, drop, cellSeed(seed, run)))
		}
	}
	return out
}
