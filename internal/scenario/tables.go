package scenario

import (
	"fmt"

	"procmig/internal/apps"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// This file re-expresses the hand-coded fault experiments as scenario
// tables. The events mirror the bespoke drivers step for step — same
// boot order, same sleeps, same poll cadences, same rmigrate argument
// order — so a given seed produces the same PRNG draw sequence and
// therefore the same per-seed outcome as the original. The equivalence
// tests in tables_test.go hold the two implementations to that.

// A7Table is one cell of the A7 matrix (migration under network faults)
// as a scenario: a memory hog on alpha migrated to beta by a client on
// gamma while the migration ports drop/duplicate chunks, or while a
// scripted crash takes beta down mid-transfer.
func A7Table(label string, totalBytes, wsBytes, dropPct int, crash bool, seed uint64) *Scenario {
	sc := &Scenario{
		Name:  fmt.Sprintf("a7-%s-drop%d-crash%v", label, dropPct, crash),
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

// A7Tables builds the whole A7 sweep with the same per-cell seed
// derivation as experiments.A7FaultSweep — cell i of the sweep and
// scenario i of this slice see identical worlds.
func A7Tables(seed uint64) []*Scenario {
	sizes := []struct {
		Label     string
		Total, WS int
	}{
		{"64K/8K", 64 << 10, 8 << 10},
		{"256K/16K", 256 << 10, 16 << 10},
	}
	drops := []int{0, 5, 10, 20}
	var out []*Scenario
	run := 0
	for _, sz := range sizes {
		for _, drop := range drops {
			run++
			out = append(out, A7Table(sz.Label, sz.Total, sz.WS, drop, false, seed+uint64(run)*0x9e3779b9))
		}
		run++
		out = append(out, A7Table(sz.Label, sz.Total, sz.WS, 0, true, seed+uint64(run)*0x9e3779b9))
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

// A8Tables builds the whole A8 sweep with the same per-cell seed
// derivation as experiments.A8FaultSweep.
func A8Tables(seed uint64) []*Scenario {
	intervals := []sim.Duration{2 * sim.Second, 5 * sim.Second}
	drops := []int{0, 10, 20}
	var out []*Scenario
	run := 0
	for _, iv := range intervals {
		for _, drop := range drops {
			run++
			out = append(out, A8Table(iv, drop, seed+uint64(run)*0x9e3779b9))
		}
	}
	return out
}
