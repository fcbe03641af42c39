package scenario

import (
	"fmt"

	"procmig/internal/sim"
)

// chaosRNG is a self-contained splitmix64: the schedule must be fully
// determined by the seed before the cluster engine (and its PRNG) even
// exists, so the generator cannot borrow the engine's stream.
type chaosRNG struct{ s uint64 }

func (r *chaosRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *chaosRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *chaosRNG) dur(lo, hi sim.Duration) sim.Duration {
	if hi <= lo {
		return lo
	}
	return lo + sim.Duration(r.next()%uint64(hi-lo))
}

// The chaos topology is fixed; only the schedule varies with the seed.
// Splitting the hosts into pools is what keeps a random schedule safe by
// construction: crashes and long partitions only ever hit hosts that no
// protected pair depends on, so every invariant violation the checker
// reports is a genuine bug, not the generator shooting the cluster in
// the head.
var (
	chaosMigPool   = []string{"n0", "n1", "n2"} // burst hogs migrate among these
	chaosCrashHome = "n3"                       // the protected workload's home (crashed once, revived)
	chaosChurnHost = "n4"                       // crash/partition churn target, no workloads
	chaosClient    = "n5"                       // runs rmigrate clients, never faulted
	chaosBuddy     = "n2"                       // guardian buddy for the protected workload
)

// Chaos builds a seeded chaos scenario: partition/heal churn, crash
// storms with staggered revival, slow-link epochs, and thundering-herd
// migration bursts, around one guardian-protected counterhog that gets
// its home crashed mid-run and must be recovered by its buddy. The same
// seed yields the same scenario, and the runner's engine seed is the
// same value — one uint64 replays the whole run.
func Chaos(seed uint64) *Scenario {
	rng := &chaosRNG{s: seed}
	sc := &Scenario{
		Name:  fmt.Sprintf("chaos-%d", seed),
		Seed:  seed,
		Hosts: []string{"n0", "n1", "n2", "n3", "n4", "n5"},
		HA:    &HAConfig{Interval: sim.Second, CkptInterval: 2 * sim.Second},
		Workloads: []Workload{
			{Name: "prot", Host: chaosCrashHome, Prog: "counterhog", TotalBytes: 32 << 10, WSBytes: 4 << 10},
			{Name: "hog0", Host: "n0", Prog: "hog", TotalBytes: 64 << 10, WSBytes: 8 << 10},
			{Name: "hog1", Host: "n1", Prog: "hog", TotalBytes: 64 << 10, WSBytes: 8 << 10},
			{Name: "hog2", Host: "n2", Prog: "hog", TotalBytes: 32 << 10, WSBytes: 4 << 10},
		},
		// The final heal/revival needs suspicion to clear and gossip to
		// spread before membership convergence is checkable.
		Settle: 20 * sim.Second,
	}
	ev := func(e Event) { sc.Events = append(sc.Events, e) }

	// Prologue: everything running, the counterhog calibrated and under
	// guardian protection with two committed checkpoints.
	for _, w := range sc.Workloads {
		ev(Event{Op: "await_ready", Workload: w.Name})
	}
	ev(Event{Op: "calibrate", Workload: "prot", Dur: 2 * sim.Second})
	ev(Event{Op: "protect", Workload: "prot", To: chaosBuddy})
	ev(Event{Op: "await_ckpt", Workload: "prot", N: 2})

	// Churn epochs. Each epoch picks one flavor; the crash epoch (home of
	// the protected workload) is injected exactly once at a random slot so
	// every run exercises recovery.
	epochs := 4 + rng.intn(3)
	crashSlot := rng.intn(epochs)
	for i := 0; i < epochs; i++ {
		if i == crashSlot {
			chaosRecoveryEpoch(rng, ev)
			continue
		}
		switch rng.intn(3) {
		case 0:
			chaosPartitionEpoch(rng, ev)
		case 1:
			chaosSlowLinkEpoch(rng, ev)
		case 2:
			chaosHerdEpoch(rng, ev)
		}
	}

	// Epilogue: heal everything and let the cluster converge. The churn
	// host may still be down if the last storm ended without a revival —
	// chaosStorm always revives, so only heal/clear remain.
	ev(Event{Op: "clear_faults"})
	ev(Event{Op: "heal"})
	return sc
}

// chaosPartitionEpoch cuts a safe group away and heals it. Safe groups
// never separate the protected pair (home n3, buddy n2), so a guardian
// can never be tricked into a split-brain restart by the generator
// itself. Probes across the cut fail, so hosts on each side suspect the
// other — that only churns membership, which must re-converge by quiesce.
func chaosPartitionEpoch(rng *chaosRNG, ev func(Event)) {
	cuts := [][][]string{
		{{chaosChurnHost}, {"n0", "n1", "n2", "n3", "n5"}},
		{{"n0"}, {"n1", "n2", "n3", "n4", "n5"}},
		{{"n0", "n1"}, {"n2", "n3", "n4", "n5"}},
	}
	ev(Event{Op: "partition", Groups: cuts[rng.intn(len(cuts))]})
	ev(Event{Op: "sleep", Dur: rng.dur(2*sim.Second, 8*sim.Second)})
	ev(Event{Op: "heal"})
	ev(Event{Op: "sleep", Dur: rng.dur(sim.Second, 3*sim.Second)})
}

// chaosSlowLinkEpoch degrades one migration-pool link (delay plus a
// little loss) and, half the time, runs a migration across it while
// degraded — the transaction must commit or abort cleanly either way.
func chaosSlowLinkEpoch(rng *chaosRNG, ev func(Event)) {
	from := chaosMigPool[rng.intn(len(chaosMigPool))]
	to := chaosMigPool[(rng.intn(len(chaosMigPool)-1)+1+indexOf(chaosMigPool, from))%len(chaosMigPool)]
	ev(Event{Op: "fault_link", From: from, To: to,
		Delay: rng.dur(2*sim.Millisecond, 20*sim.Millisecond),
		Drop:  float64(rng.intn(10)) / 100})
	if rng.intn(2) == 0 {
		hog := fmt.Sprintf("hog%d", rng.intn(3))
		ev(Event{Op: "migrate", Workload: hog, Host: chaosClient, To: to, Stream: rng.intn(2) == 0})
	} else {
		ev(Event{Op: "sleep", Dur: rng.dur(2*sim.Second, 5*sim.Second)})
	}
	ev(Event{Op: "clear_faults"})
}

// chaosHerdEpoch is the thundering herd: every burst hog migrates at
// once (async), targets chosen independently, then a barrier. Half the
// herds run while the churn host is crashed — a storm with staggered
// revival — so migrations race membership churn.
func chaosHerdEpoch(rng *chaosRNG, ev func(Event)) {
	storm := rng.intn(2) == 0
	if storm {
		ev(Event{Op: "crash", Host: chaosChurnHost})
	}
	for i := 0; i < 3; i++ {
		ev(Event{Op: "migrate_async",
			Workload: fmt.Sprintf("hog%d", i),
			Host:     chaosClient,
			To:       chaosMigPool[rng.intn(len(chaosMigPool))],
			Stream:   rng.intn(2) == 0})
	}
	ev(Event{Op: "await_migrations"})
	if storm {
		ev(Event{Op: "sleep", Dur: rng.dur(sim.Second, 4*sim.Second)}) // staggered revival
		ev(Event{Op: "revive", Host: chaosChurnHost})
	}
}

// chaosRecoveryEpoch crashes the protected workload's current home,
// waits for the buddy guardian to restart it, and revives the host (a
// fresh boot that must be re-admitted exactly once).
func chaosRecoveryEpoch(rng *chaosRNG, ev func(Event)) {
	ev(Event{Op: "crash", Host: "@home:prot"})
	ev(Event{Op: "await_recovery", Workload: "prot"})
	ev(Event{Op: "sleep", Dur: rng.dur(sim.Second, 3*sim.Second)})
	ev(Event{Op: "revive", Host: chaosCrashHome})
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}
