package experiments

import (
	"fmt"
	"time"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// A13: the declarative controller at cluster scale, on real kernels.
// Boot N hosts, submit two apps — a spread service with anti-affinity
// and a bin-packed batch tier — and measure three convergences: the
// initial rollout, healing a crash wave that takes out a tenth of the
// cluster, and a rolling drain of a multi-wave host — while auditing the
// kernels (not the controller's books) for the replica count after
// every reconcile period. The seed draws the crash wave and the drain
// host as well as the engine's randomness.

// a13ServiceSrc is the replica program: touch a 16 KiB working set,
// bump a beat counter, sleep one second, repeat. The duty cycle is what
// makes a 200-host run cheap — a replica costs a few hundred
// instructions per virtual second instead of saturating its CPU — while
// staying a real process the migration machinery moves wholesale.
const a13ServiceSrc = `
loop:   movi r2, ws
        movi r3, 7
touch:  str  r2, r3
        addi r2, 1024
        cmpi r2, wsend
        jlt  touch
        ld   r4, beat
        addi r4, 1
        st   r4, beat
        movi r0, 1
        sys  sleep
        jmp  loop
        .data
beat:   .word 0
ws:     .space 16384
wsend:  .space 16384
`

const a13Path = "/bin/appsvc"

// A13Config sizes the scenario. The zero value means the CI default:
// 200 hosts, 60 service + 12 batch replicas, a 20-host crash wave,
// seed 13.
type A13Config struct {
	Hosts     int
	Replicas  int // service app (spread, anti-affinity)
	Batch     int // batch app (binpack, capped per host)
	CrashWave int
	Seed      uint64
}

func (c A13Config) withDefaults() A13Config {
	if c.Hosts <= 0 {
		c.Hosts = 200
	}
	if c.Replicas <= 0 {
		c.Replicas = c.Hosts * 3 / 10
		if c.Replicas < 4 {
			c.Replicas = 4
		}
	}
	if c.Replicas >= c.Hosts {
		c.Replicas = c.Hosts - 1 // anti-affinity needs a spare host
	}
	if c.Batch <= 0 {
		c.Batch = c.Hosts / 16
		if c.Batch < 4 {
			c.Batch = 4
		}
	}
	if c.CrashWave <= 0 {
		c.CrashWave = c.Hosts / 10
		if c.CrashWave < 2 {
			c.CrashWave = 2
		}
	}
	if c.CrashWave >= c.Replicas {
		c.CrashWave = c.Replicas - 1
	}
	if c.Seed == 0 {
		c.Seed = 13
	}
	return c
}

// a13BatchCap is the batch app's per-host cap: bin-packing concentrates
// its replicas, so the drain phase has hosts loaded enough to empty in
// multiple rate-limited waves.
const a13BatchCap = 4

// a13DrainWave keeps drain waves smaller than the loaded host's
// population, so the makespan shows the wave/settle rhythm.
const a13DrainWave = 2

// A13Result is everything migbench prints and BENCH_a13.json records.
// All fields except the wall-clock trio are virtual-time quantities and
// must replay exactly for a fixed seed.
type A13Result struct {
	Hosts     int    `json:"hosts"`
	Replicas  int    `json:"replicas"`
	Batch     int    `json:"batch_replicas"`
	CrashWave int    `json:"crash_wave"`
	Seed      uint64 `json:"seed"`

	// Phase 1: submit -> every replica running and sighted.
	ConvergeS      float64 `json:"converge_s"`
	ConvergeRounds int64   `json:"converge_rounds"`

	// Phase 2: crash wave -> healed. replicas_lost is the controller's
	// accounting of the wave (slots judged dead); every one must come
	// back as a respawn.
	HealS        float64 `json:"heal_s"`
	HealRounds   int64   `json:"heal_rounds"`
	Respawns     int64   `json:"respawns"`
	ReplicasLost int64   `json:"replicas_lost"`

	// Phase 3: rolling drain of a host carrying more than one wave.
	DrainHost  string  `json:"drain_host"`
	DrainS     float64 `json:"drain_s"`
	DrainWaves int     `json:"drain_waves"`
	DrainMoves int     `json:"drain_moves"`

	// Ground truth at the end: running replica processes audited from
	// the kernels. final_deficit must be zero.
	FinalReplicas int `json:"final_replicas"`
	FinalDeficit  int `json:"final_deficit"`

	// Perf trajectory (wall fields are machine-dependent).
	VirtualTime  float64 `json:"virtual_s"`
	Wall         float64 `json:"wall_s"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// A13Controller runs the scenario and checks its invariants: every
// convergence completes inside its virtual-time budget, the kernel-level
// replica count never exceeds the desired count by more than the
// migration concurrency in flight, the crash wave's losses are exactly
// accounted and healed by respawns, the drained host ends empty, and
// the final census matches the specs exactly.
func A13Controller(cfg A13Config) (*A13Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	desired := cfg.Replicas + cfg.Batch

	specs := make([]cluster.HostSpec, cfg.Hosts)
	for i := range specs {
		specs[i] = cluster.HostSpec{Name: fmt.Sprintf("h%03d", i), ISA: vm.ISA1}
	}
	c, err := cluster.New(cluster.Options{Hosts: specs, Config: kernel.Config{TrackNames: true}})
	if err != nil {
		return nil, err
	}
	defer c.Eng.Close()
	c.Eng.Seed(cfg.Seed)
	// The faults draw from their own stream, so they do not shift the
	// engine's draws.
	faults := cfg.Seed ^ 0xa13fa0175eed
	draw := func(n int) int { return int(splitmix64(&faults) % uint64(n)) }
	if err := c.InstallVM(a13Path, a13ServiceSrc); err != nil {
		return nil, err
	}
	if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
		return nil, err
	}
	period := 2 * sim.Second
	ctl, err := c.StartController("h000", controller.Config{
		Period: period, MaxActionsPerRound: 12, DrainWave: a13DrainWave,
	})
	if err != nil {
		return nil, err
	}

	// census audits the kernels directly: a replica is a running process
	// that is either the installed binary or a migrated successor (a
	// restored process's Cmd is its dump image, so the path alone cannot
	// identify post-move copies; nothing else migrates in this run).
	census := func() (int, map[string]int) {
		total, per := 0, map[string]int{}
		for _, hn := range c.Names() {
			if c.NetHost(hn).Down() {
				continue
			}
			for _, p := range c.Machine(hn).Procs() {
				if p.State == kernel.ProcRunning && (p.Cmd == a13Path || p.Migrated) {
					total++
					per[hn]++
				}
			}
		}
		return total, per
	}
	ctr := func(name string) int64 { return c.Obs.Scope("h000").Counter(name).Value() }

	// stepUntil advances one reconcile period at a time until ok() holds,
	// auditing the replica count after every step: more than desired +
	// allowOver running copies is the exactly-one-copy guarantee broken
	// (allowOver admits the transient double a mid-flight migration
	// transaction legitimately holds).
	stepUntil := func(phase string, budget sim.Duration, allowOver int, ok func() bool) (sim.Duration, error) {
		from := c.Eng.Now()
		for {
			if ok() {
				return sim.Duration(c.Eng.Now() - from), nil
			}
			if sim.Duration(c.Eng.Now()-from) >= budget {
				total, _ := census()
				return 0, fmt.Errorf("a13: %s did not converge within %v (running %d, want %d, status %+v)",
					phase, budget, total, desired, ctl.Status())
			}
			if err := c.RunUntil(c.Eng.Now() + sim.Time(period)); err != nil {
				return 0, err
			}
			if total, _ := census(); total > desired+allowOver {
				return 0, fmt.Errorf("a13: %s: %d running replicas, want at most %d — duplicate copies",
					phase, total, desired+allowOver)
			}
		}
	}

	// Warm-up: let gossip membership converge before submitting, so the
	// convergence time measures the controller, not bootstrap.
	if err := c.RunUntil(c.Eng.Now() + sim.Time(10*sim.Second)); err != nil {
		return nil, err
	}

	res := &A13Result{
		Hosts: cfg.Hosts, Replicas: cfg.Replicas, Batch: cfg.Batch,
		CrashWave: cfg.CrashWave, Seed: cfg.Seed,
	}

	// Phase 1: submit both apps and converge. Both avoid the controller
	// host — crashing or draining the control node is a different
	// experiment — which also keeps the crash wave and drain selection
	// below (both skip h000) aligned with where replicas can live.
	if err := ctl.Submit(controller.AppSpec{
		Name: "svc", Path: a13Path, Replicas: cfg.Replicas,
		Policy: "spread", AntiAffinity: true, Avoid: []string{"h000"},
	}); err != nil {
		return nil, err
	}
	if err := ctl.Submit(controller.AppSpec{
		Name: "batch", Path: a13Path, Replicas: cfg.Batch,
		Policy: "binpack", MaxPerHost: a13BatchCap, Avoid: []string{"h000"},
	}); err != nil {
		return nil, err
	}
	r0 := ctr("controller.rounds")
	converged := func() bool {
		total, _ := census()
		return ctl.Converged() && total == desired
	}
	d, err := stepUntil("rollout", 300*sim.Second, 0, converged)
	if err != nil {
		return nil, err
	}
	res.ConvergeS = float64(d) / float64(sim.Second)
	res.ConvergeRounds = ctr("controller.rounds") - r0

	// Phase 2: crash a tenth of the cluster — replica carriers, the
	// controller host excepted, drawn from the seed — and heal. Every
	// lost slot must come back as a respawn on a surviving host, and the
	// controller's loss accounting must match the replicas that were
	// actually on the crashed hosts.
	_, per := census()
	var carriers []string
	for _, hn := range c.Names() {
		if hn != "h000" && per[hn] > 0 {
			carriers = append(carriers, hn)
		}
	}
	if len(carriers) < cfg.CrashWave {
		return nil, fmt.Errorf("a13: only %d replica-carrying hosts to crash, want %d", len(carriers), cfg.CrashWave)
	}
	lostExpected := 0
	for i := 0; i < cfg.CrashWave; i++ {
		j := i + draw(len(carriers)-i)
		carriers[i], carriers[j] = carriers[j], carriers[i]
		c.Crash(carriers[i])
		lostExpected += per[carriers[i]]
	}
	r0 = ctr("controller.rounds")
	d, err = stepUntil("crash-wave heal", 300*sim.Second, 0, converged)
	if err != nil {
		return nil, err
	}
	res.HealS = float64(d) / float64(sim.Second)
	res.HealRounds = ctr("controller.rounds") - r0
	res.Respawns = ctr("controller.respawns")
	res.ReplicasLost = ctr("controller.replicas_lost")
	if res.ReplicasLost != int64(lostExpected) {
		return nil, fmt.Errorf("a13: controller recorded %d lost replicas, want %d (the crash wave's census)",
			res.ReplicasLost, lostExpected)
	}
	if res.Respawns != res.ReplicasLost {
		return nil, fmt.Errorf("a13: %d respawns for %d lost replicas", res.Respawns, res.ReplicasLost)
	}

	// Phase 3: rolling drain of a surviving host drawn from the seed
	// among those carrying more than one wave — by construction
	// bin-packed batch hosts, so the evacuation takes multiple
	// rate-limited waves.
	_, per = census()
	var loaded []string
	for _, hn := range c.Names() {
		if hn != "h000" && per[hn] > a13DrainWave && !c.NetHost(hn).Down() {
			loaded = append(loaded, hn)
		}
	}
	if len(loaded) == 0 {
		return nil, fmt.Errorf("a13: no host left carrying more than %d replicas to drain", a13DrainWave)
	}
	drainHost := loaded[draw(len(loaded))]
	evacuees := per[drainHost]
	if err := c.DrainHost(drainHost); err != nil {
		return nil, err
	}
	drained := func() bool {
		st, ok := ctl.DrainStatus(drainHost)
		if !ok || !st.Done {
			return false
		}
		total, per := census()
		return ctl.Converged() && total == desired && per[drainHost] == 0
	}
	// A drain wave holds up to DrainWave transactions in flight; a poll
	// boundary can land mid-wave, so admit that much transient surplus.
	if _, err = stepUntil("drain", 300*sim.Second, a13DrainWave, drained); err != nil {
		return nil, err
	}
	st, _ := ctl.DrainStatus(drainHost)
	res.DrainHost = drainHost
	res.DrainS = float64(st.Makespan) / float64(sim.Second)
	res.DrainWaves = st.Waves
	res.DrainMoves = st.Moved
	if st.Failed != 0 {
		return nil, fmt.Errorf("a13: drain of %s had %d failed moves", drainHost, st.Failed)
	}
	if st.Moved != evacuees {
		return nil, fmt.Errorf("a13: drain of %s moved %d replicas, want %d", drainHost, st.Moved, evacuees)
	}
	if want := (evacuees + a13DrainWave - 1) / a13DrainWave; st.Waves != want {
		return nil, fmt.Errorf("a13: drain of %s took %d waves for %d evacuees, want %d",
			drainHost, st.Waves, evacuees, want)
	}

	total, per := census()
	res.FinalReplicas = total
	res.FinalDeficit = desired - total
	if res.FinalDeficit != 0 {
		return nil, fmt.Errorf("a13: final census %d, want %d", total, desired)
	}
	if per[drainHost] != 0 {
		return nil, fmt.Errorf("a13: drained host %s still runs %d replicas", drainHost, per[drainHost])
	}

	stats := c.Eng.Stats()
	res.VirtualTime = float64(c.Eng.Now()) / float64(sim.Second)
	res.Wall = time.Since(start).Seconds()
	res.Events = stats.Dispatched
	if res.Wall > 0 {
		res.EventsPerSec = float64(stats.Dispatched) / res.Wall
	}
	return res, nil
}
