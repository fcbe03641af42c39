package experiments

import (
	"fmt"
	"time"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/core"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// A14: the cluster page store under a mass drain of identical replicas.
// One bin-packed app stacks every replica of the same program — same
// text, same deterministically generated working set — onto a single
// host. The whole stack is then drained to one destination, and the
// packed destination is crashed so the buddy guardians heal the wave.
// The identical scenario runs three times under one seed:
//
//	raw      WireRaw migrations, stores disabled — the no-dedup floor
//	session  elide+LZ migrations, stores disabled — PR 4's per-session
//	         hash dedup, the baseline the store must beat
//	store    elide+LZ plus the host-wide page store: the first replica
//	         to land warms the destination, every later one ships
//	         13-byte refs
//
// Because every replica's image is incompressible by construction (an
// LCG fill — no zero pages, nothing for LZ), the session baseline must
// ship each replica's pages in full, so the byte gap between session
// and store is purely the cross-session dedup. The experiment fails
// unless the store cuts drain bytes by MinBytesRatio and strictly
// improves the drain makespan.

const a14Path = "/bin/replsvc"

// a14Src builds the replica program for a dataKiB working set: fill it
// once with LCG words (identical across replicas, incompressible), then
// sit in a beat loop touching one working-set page per second with a
// content-stable read-modify-write — dirty bits without new content,
// exactly the shape the hash dedup exists for.
func a14Src(dataKiB int) string {
	pages := dataKiB // 1 KiB pages
	return fmt.Sprintf(`
        movi r5, 88172645
        movi r6, 1103515245
        movi r2, ws
init:   mul  r5, r6
        addi r5, 12345
        str  r2, r5
        addi r2, 4
        cmpi r2, wsend
        jlt  init
loop:   ld   r4, beat
        addi r4, 1
        st   r4, beat
        mov  r3, r4
        movi r7, %d
        mod  r3, r7
        movi r7, 1024
        mul  r3, r7
        movi r2, ws
        add  r2, r3
        ldr  r7, r2
        str  r2, r7
        movi r0, 1
        sys  sleep
        jmp  loop
        .data
beat:   .word 0
ws:     .space %d
wsend:  .word 0
`, pages, dataKiB<<10)
}

// imagesLoaded reports whether no process running path on c is still
// loading its image. The controller sights a replica from its spawn on,
// so a rollout converges while the exec storm is still running; anything
// sized from "the replicas run" has to wait for this as well.
func imagesLoaded(c *cluster.Cluster, path string) bool {
	for _, hn := range c.Names() {
		for _, p := range c.Machine(hn).Procs() {
			if p.Spawning && p.Cmd == path {
				return false
			}
		}
	}
	return true
}

// a14DrainWave keeps waves much smaller than the packed host's
// population: only the first wave can ship full pages in store mode, so
// the byte ratio grows with Replicas.
const a14DrainWave = 2

// A14Config sizes the scenario. The zero value is the CI default:
// 200 hosts, 32 replicas of a 1 MiB working set, seed 14, and a hard
// 5× drain-byte gate for store vs session.
type A14Config struct {
	Hosts    int
	Replicas int
	DataKiB  int // per-replica working set (1 KiB pages)
	Seed     uint64
	// MinBytesRatio is the acceptance gate: session-mode drain bytes
	// must be at least this multiple of store-mode drain bytes. The
	// ratio scales with Replicas/DrainWave, so reduced test
	// configs must pass a reduced gate.
	MinBytesRatio float64
}

func (c A14Config) withDefaults() A14Config {
	if c.Hosts <= 0 {
		c.Hosts = 200
	}
	if c.Replicas <= 0 {
		c.Replicas = 32
	}
	if c.DataKiB <= 0 {
		c.DataKiB = 1024
	}
	if c.Seed == 0 {
		c.Seed = 14
	}
	if c.MinBytesRatio == 0 {
		c.MinBytesRatio = 5
	}
	return c
}

// A14Mode is one full scenario run under one wire/store configuration.
// Everything but the byte counters is controller-visible; the byte
// counters are the per-host stream and checkpoint meters summed over
// the cluster.
type A14Mode struct {
	Mode string `json:"mode"`

	// Rollout: submit -> all replicas packed on one host and sighted.
	RolloutS float64 `json:"rollout_s"`
	PackHost string  `json:"pack_host"`

	// Mass drain of the packed host: every replica to one destination.
	DrainHost  string  `json:"drain_host"`
	DestHost   string  `json:"dest_host"`
	DrainS     float64 `json:"drain_s"`
	DrainWaves int     `json:"drain_waves"`
	DrainMoves int     `json:"drain_moves"`
	DrainBytes int64   `json:"drain_bytes"`

	// Page-store efficacy over the whole run (zero outside store mode).
	SpecPages  int64 `json:"spec_pages"`
	SpecNacks  int64 `json:"spec_nacks"`
	StoreHits  int64 `json:"store_hits"`
	StoreEvict int64 `json:"store_evictions"`

	// Crash-wave heal: the packed destination dies; buddy guardians
	// restore every replica and the controller adopts them.
	HealS     float64 `json:"heal_s"`
	Lost      int64   `json:"replicas_lost"`
	Adoptions int64   `json:"adoptions"`
	Respawns  int64   `json:"respawns"`
	CkptBytes int64   `json:"ckpt_bytes"`

	FinalReplicas int `json:"final_replicas"`
}

// A14Result is everything migbench prints and BENCH_a14.json records.
// All virtual-time quantities replay exactly for a fixed seed; only the
// wall-clock trio is machine-dependent.
type A14Result struct {
	Hosts     int    `json:"hosts"`
	Replicas  int    `json:"replicas"`
	DataKiB   int    `json:"data_kib"`
	Seed      uint64 `json:"seed"`
	DrainWave int    `json:"drain_wave"`

	Raw     A14Mode `json:"raw"`
	Session A14Mode `json:"session"`
	Store   A14Mode `json:"store"`

	// The headline numbers: session-baseline drain bytes over store
	// drain bytes, and the makespan improvement.
	DrainBytesRatio float64 `json:"drain_bytes_ratio"`
	DrainSpeedup    float64 `json:"drain_speedup"`

	VirtualTime  float64 `json:"virtual_s"` // summed across the three runs
	Wall         float64 `json:"wall_s"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// A14Dedup runs the three-mode scenario and checks the acceptance
// gates: the store cuts session-baseline drain bytes by at least
// MinBytesRatio, strictly improves the drain makespan, ships spec refs
// only in store mode, and every run ends with the exact replica census.
func A14Dedup(cfg A14Config) (*A14Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	res := &A14Result{
		Hosts: cfg.Hosts, Replicas: cfg.Replicas, DataKiB: cfg.DataKiB,
		Seed: cfg.Seed, DrainWave: a14DrainWave,
	}
	for _, mode := range []string{"raw", "session", "store"} {
		run, events, virtual, err := a14Run(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("a14 %s: %w", mode, err)
		}
		res.Events += events
		res.VirtualTime += virtual
		switch mode {
		case "raw":
			res.Raw = *run
		case "session":
			res.Session = *run
		case "store":
			res.Store = *run
		}
	}

	// The gates. Raw over session is a sanity floor (session dedup
	// cannot lose on an incompressible image); session over store is
	// the tentpole's acceptance criterion.
	if res.Raw.DrainBytes < res.Session.DrainBytes {
		return res, fmt.Errorf("a14: raw drain shipped fewer bytes (%d) than session dedup (%d)",
			res.Raw.DrainBytes, res.Session.DrainBytes)
	}
	if res.Store.DrainBytes <= 0 {
		return res, fmt.Errorf("a14: store-mode drain shipped no bytes")
	}
	res.DrainBytesRatio = float64(res.Session.DrainBytes) / float64(res.Store.DrainBytes)
	if res.DrainBytesRatio < cfg.MinBytesRatio {
		return res, fmt.Errorf("a14: store cut drain bytes only %.2fx vs session (%d -> %d B), want >= %.1fx",
			res.DrainBytesRatio, res.Session.DrainBytes, res.Store.DrainBytes, cfg.MinBytesRatio)
	}
	if res.Store.DrainS >= res.Session.DrainS {
		return res, fmt.Errorf("a14: store drain makespan %.1fs did not beat session %.1fs",
			res.Store.DrainS, res.Session.DrainS)
	}
	res.DrainSpeedup = res.Session.DrainS / res.Store.DrainS
	if res.Store.SpecPages == 0 || res.Store.StoreHits == 0 {
		return res, fmt.Errorf("a14: store mode shipped no speculative refs (spec=%d hits=%d)",
			res.Store.SpecPages, res.Store.StoreHits)
	}
	if res.Raw.SpecPages != 0 || res.Session.SpecPages != 0 {
		return res, fmt.Errorf("a14: baseline modes shipped spec refs (raw=%d session=%d)",
			res.Raw.SpecPages, res.Session.SpecPages)
	}

	res.Wall = time.Since(start).Seconds()
	if res.Wall > 0 {
		res.EventsPerSec = float64(res.Events) / res.Wall
	}
	return res, nil
}

// a14Run is one mode's full scenario on a fresh cluster.
func a14Run(cfg A14Config, mode string) (*A14Mode, int64, float64, error) {
	specs := make([]cluster.HostSpec, cfg.Hosts)
	for i := range specs {
		specs[i] = cluster.HostSpec{Name: fmt.Sprintf("h%03d", i), ISA: vm.ISA1}
	}
	c, err := cluster.New(cluster.Options{Hosts: specs, Config: kernel.Config{TrackNames: true}})
	if err != nil {
		return nil, 0, 0, err
	}
	defer c.Eng.Close()
	c.Eng.Seed(cfg.Seed)
	switch mode {
	case "raw":
		c.SetMigrationWire(core.WireRaw)
		c.ConfigurePageStores(0)
	case "session":
		c.ConfigurePageStores(0)
	case "store":
		// Stores come up lazily at the default budget; nothing to do.
	}
	if err := c.InstallVM(a14Path, a14Src(cfg.DataKiB)); err != nil {
		return nil, 0, 0, err
	}
	// A long delta-checkpoint period keeps guardian traffic out of the
	// way of the drain (the meters are separate, but the CPU is not).
	ckptIvl := 15 * sim.Second
	if err := c.StartHA(ha.Config{Interval: sim.Second, CkptInterval: ckptIvl}); err != nil {
		return nil, 0, 0, err
	}
	period := 2 * sim.Second
	// The exec storm: spawning R replicas whose working set is baked into
	// the binary's data segment costs ExecPerByte (3 µs/B) of kernel CPU
	// each, plus the ~1.5 µs/B LCG fill — all serialized on the packed
	// host's one 1-MIPS CPU, and round-robin scheduling means every exec
	// finishes (and every p.VM becomes beacon-visible) together near the
	// end. The controller's patience has to cover that, or the judge
	// convicts the whole batch as unsighted and respawns duplicates.
	execStorm := sim.Duration(cfg.Replicas*cfg.DataKiB)*5*sim.Millisecond +
		sim.Duration(cfg.Replicas)*100*sim.Millisecond
	// RecoveryGrace covers the worst case of every buddy restoring at
	// once: a restore replays an exec-sized image load, and two replicas
	// sharing a buddy serialize on its CPU.
	ctl, err := c.StartController("h000", controller.Config{
		Period: period, MaxActionsPerRound: cfg.Replicas + 8, DrainWave: a14DrainWave,
		SpawnGrace:    execStorm + 10*sim.Second,
		RecoveryGrace: sim.Duration(cfg.DataKiB)*20*sim.Millisecond + 30*sim.Second,
	})
	if err != nil {
		return nil, 0, 0, err
	}

	census := func() (int, map[string]int) {
		total, per := 0, map[string]int{}
		for _, hn := range c.Names() {
			if c.NetHost(hn).Down() {
				continue
			}
			for _, p := range c.Machine(hn).Procs() {
				if p.State == kernel.ProcRunning && (p.Cmd == a14Path || p.Migrated) {
					total++
					per[hn]++
				}
			}
		}
		return total, per
	}
	ctr := func(name string) int64 { return c.Obs.Scope("h000").Counter(name).Value() }
	// sum meters a per-host counter across the whole cluster — the
	// stream and checkpoint byte meters live in the source host's scope.
	sum := func(name string) int64 {
		var t int64
		for _, hn := range c.Names() {
			t += c.Obs.Scope(hn).Counter(name).Value()
		}
		return t
	}

	stepUntil := func(phase string, budget sim.Duration, allowOver int, ok func() bool) (sim.Duration, error) {
		from := c.Eng.Now()
		for {
			if ok() {
				return sim.Duration(c.Eng.Now() - from), nil
			}
			if sim.Duration(c.Eng.Now()-from) >= budget {
				total, _ := census()
				return 0, fmt.Errorf("%s did not converge within %v (running %d, want %d, status %+v)",
					phase, budget, total, cfg.Replicas, ctl.Status())
			}
			if err := c.RunUntil(c.Eng.Now() + sim.Time(period)); err != nil {
				return 0, err
			}
			if total, _ := census(); total > cfg.Replicas+allowOver {
				return 0, fmt.Errorf("%s: %d running replicas, want at most %d — duplicate copies",
					phase, total, cfg.Replicas+allowOver)
			}
		}
	}

	// Warm-up: gossip membership first, so rollout measures the
	// controller rather than bootstrap.
	if err := c.RunUntil(c.Eng.Now() + sim.Time(10*sim.Second)); err != nil {
		return nil, 0, 0, err
	}

	run := &A14Mode{Mode: mode}

	// Phase 1: rollout. Bin-packing with MaxPerHost == Replicas stacks
	// the whole app on one host; Protect arms the buddy guardians for
	// the crash-wave phase.
	if err := ctl.Submit(controller.AppSpec{
		Name: "repl", Path: a14Path, Replicas: cfg.Replicas,
		Policy: "binpack", MaxPerHost: cfg.Replicas, Protect: true,
		Avoid: []string{"h000"},
	}); err != nil {
		return nil, 0, 0, err
	}
	converged := func() bool {
		total, _ := census()
		return ctl.Converged() && total == cfg.Replicas
	}
	d, err := stepUntil("rollout", 2*execStorm+60*sim.Second, 0, converged)
	if err != nil {
		return nil, 0, 0, err
	}
	run.RolloutS = float64(d) / float64(sim.Second)
	_, per := census()
	for hn, n := range per {
		if n == cfg.Replicas {
			run.PackHost = hn
		}
	}
	if run.PackHost == "" {
		return nil, 0, 0, fmt.Errorf("rollout did not pack all %d replicas on one host: %v", cfg.Replicas, per)
	}
	if _, err := stepUntil("image load", 2*execStorm, 0, func() bool { return imagesLoaded(c, a14Path) }); err != nil {
		return nil, 0, 0, err
	}

	// Settle: the guardians take their first full checkpoints — each one
	// spools the whole image off the packed host at a few µs of CPU per
	// byte, serialized like the exec storm was. Sized from the config so
	// reduced test runs do not wait the CI default.
	initBudget := sim.Duration(cfg.Replicas*cfg.DataKiB) * 3 * sim.Millisecond
	if err := c.RunUntil(c.Eng.Now() + sim.Time(initBudget+3*ckptIvl)); err != nil {
		return nil, 0, 0, err
	}
	if got := ctr("controller.protects"); got < int64(cfg.Replicas) {
		return nil, 0, 0, fmt.Errorf("only %d guardian protections after settle, want >= %d", got, cfg.Replicas)
	}

	// Phase 2: mass drain of the packed host. Bin-packing sends every
	// evacuee to the same destination, so in store mode only the first
	// wave can ship full pages.
	b0 := sum("stream.wire_bytes")
	prot0 := ctr("controller.protects")
	if err := c.DrainHost(run.PackHost); err != nil {
		return nil, 0, 0, err
	}
	drained := func() bool {
		st, ok := ctl.DrainStatus(run.PackHost)
		if !ok || !st.Done {
			return false
		}
		total, per := census()
		return ctl.Converged() && total == cfg.Replicas && per[run.PackHost] == 0
	}
	if _, err = stepUntil("drain", 600*sim.Second, a14DrainWave, drained); err != nil {
		return nil, 0, 0, err
	}
	st, _ := ctl.DrainStatus(run.PackHost)
	run.DrainHost = run.PackHost
	run.DrainS = float64(st.Makespan) / float64(sim.Second)
	run.DrainWaves = st.Waves
	run.DrainMoves = st.Moved
	run.DrainBytes = sum("stream.wire_bytes") - b0
	if st.Failed != 0 {
		return nil, 0, 0, fmt.Errorf("drain of %s had %d failed moves", run.PackHost, st.Failed)
	}
	if st.Moved != cfg.Replicas {
		return nil, 0, 0, fmt.Errorf("drain moved %d replicas, want %d", st.Moved, cfg.Replicas)
	}
	if want := (cfg.Replicas + a14DrainWave - 1) / a14DrainWave; st.Waves != want {
		return nil, 0, 0, fmt.Errorf("drain took %d waves for %d evacuees, want %d", st.Waves, cfg.Replicas, want)
	}
	_, per = census()
	for hn, n := range per {
		if n == cfg.Replicas {
			run.DestHost = hn
		}
	}
	if run.DestHost == "" || run.DestHost == run.PackHost {
		return nil, 0, 0, fmt.Errorf("drain scattered the stack instead of repacking it: %v", per)
	}

	// Settle again: a migrated replica's protection is cleared at commit
	// and re-registered only once the copy is sighted on the new host, so
	// wait for every slot to re-protect — the crash wave below is only
	// survivable once the guardians hold fresh spools. Then let the
	// checkpoint cycle run so each spool is complete.
	reprotected := func() bool { return ctr("controller.protects")-prot0 >= int64(cfg.Replicas) }
	reprotBudget := sim.Duration(cfg.Replicas*cfg.DataKiB)*3*sim.Millisecond + 60*sim.Second
	if _, err = stepUntil("re-protect", reprotBudget, 0, reprotected); err != nil {
		return nil, 0, 0, err
	}
	// Registration is not survivability: the post-drain checkpoint storm
	// re-ships every image in full, serialized on the destination's one
	// CPU (and each page pays hash+LZ CPU in the dedup modes), so a
	// fixed settle leaves the slowest spools uncommitted — and a crash
	// then is a *legitimate* data loss, not a heal failure. Poll the
	// buddy tables until every protection's first checkpoint committed.
	spooled := func() bool {
		st, ok := ctl.App("repl")
		if !ok || len(st.Replicas) != cfg.Replicas {
			return false
		}
		for _, r := range st.Replicas {
			if r.State != "live" {
				return false
			}
			committed := false
			for _, hn := range c.Names() {
				if hn != r.Host && c.HA(hn).Guard.CommittedSeq(r.Host, r.PID) >= 1 {
					committed = true
					break
				}
			}
			if !committed {
				return false
			}
		}
		return true
	}
	spoolBudget := sim.Duration(cfg.Replicas*cfg.DataKiB)*10*sim.Millisecond + 3*ckptIvl
	if _, err = stepUntil("checkpoint spool", spoolBudget, 0, spooled); err != nil {
		return nil, 0, 0, err
	}

	// Phase 3: crash-wave heal. The destination now carries the entire
	// app; killing it loses every replica at once, and each one must
	// come back through its buddy guardian's restart, adopted — not
	// respawned — by the controller.
	lost0, adopt0, resp0 := ctr("controller.replicas_lost"), ctr("controller.adoptions"), ctr("controller.respawns")
	c.Crash(run.DestHost)
	// Converged alone is not enough: guardian restores can refill the
	// kernel census before the controller even suspects the dead host
	// (its bindings still say "live on the crashed host" until grace
	// runs out). Healed means every slot rebound off the dead host too.
	healed := func() bool {
		if !converged() {
			return false
		}
		st, ok := ctl.App("repl")
		if !ok {
			return false
		}
		for _, r := range st.Replicas {
			if r.Host == run.DestHost {
				return false
			}
		}
		return true
	}
	d, err = stepUntil("crash-wave heal", 300*sim.Second, 0, healed)
	if err != nil {
		return nil, 0, 0, err
	}
	run.HealS = float64(d) / float64(sim.Second)
	run.Lost = ctr("controller.replicas_lost") - lost0
	run.Adoptions = ctr("controller.adoptions") - adopt0
	run.Respawns = ctr("controller.respawns") - resp0
	// replicas_lost counts drops that went to a cold respawn; an adopted
	// guardian recovery rebinds the slot without ever counting as lost.
	// A clean crash-wave heal is therefore all adoptions and no losses.
	if run.Adoptions != int64(cfg.Replicas) {
		return nil, 0, 0, fmt.Errorf("crash of %s healed %d replicas through guardians, want %d (lost=%d respawned=%d)",
			run.DestHost, run.Adoptions, cfg.Replicas, run.Lost, run.Respawns)
	}
	if run.Lost != 0 || run.Respawns != 0 {
		return nil, 0, 0, fmt.Errorf("crash of %s cold-respawned %d replicas (lost=%d); want a pure guardian heal",
			run.DestHost, run.Respawns, run.Lost)
	}

	run.CkptBytes = sum("ha.ckpt_wire_bytes")
	run.SpecPages = sum("stream.pages_spec")
	run.SpecNacks = sum("stream.spec_nacks")
	run.StoreHits = sum("pagestore.hits")
	run.StoreEvict = sum("pagestore.evictions")
	total, _ := census()
	run.FinalReplicas = total
	if total != cfg.Replicas {
		return nil, 0, 0, fmt.Errorf("final census %d, want %d", total, cfg.Replicas)
	}

	stats := c.Eng.Stats()
	return run, stats.Dispatched, float64(c.Eng.Now()) / float64(sim.Second), nil
}
