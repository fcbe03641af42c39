package experiments

import (
	"fmt"
	"time"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/load"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// A15: the client's view of a drain. The paper prices migration in
// freeze seconds and image bytes; a client experiences neither — it
// experiences the requests it happened to send while the server was
// frozen. This experiment puts a packed host under sustained open-loop
// load, drains it through the controller, and reports the latency
// distribution a client saw under three migration designs:
//
//	stop     the paper's original stop-and-copy: freeze, dump the whole
//	         image to the file server, restart on the destination
//	precopy  PR 5's streaming engine: pre-copy rounds while running,
//	         freeze only for the final delta
//	store    precopy plus the host-wide page store — the final delta
//	         rides mostly 13-byte refs
//
// Every SLO-breaching request is then blamed on the migration phase
// whose span it overlapped (internal/load.Attribute), so the p99 gap
// between modes decomposes into freeze vs dump vs restart time. The
// experiment fails unless store's client p99 is strictly below stop's.

const a15Path = "/bin/slisvc"

// A15Config sizes the scenario. The zero value is the CI default:
// 200 hosts, 6 replicas of a 256 KiB working set packed on one host,
// seed 15.
type A15Config struct {
	Hosts    int
	Replicas int
	DataKiB  int // per-replica working set (1 KiB pages)
	Seed     uint64
}

func (c A15Config) withDefaults() A15Config {
	if c.Hosts <= 0 {
		c.Hosts = 200
	}
	if c.Replicas <= 0 {
		c.Replicas = 6
	}
	if c.DataKiB <= 0 {
		c.DataKiB = 256
	}
	if c.Seed == 0 {
		c.Seed = 15
	}
	return c
}

// Fixed load shape: one synthetic client per replica. The timeout is
// deliberately far above any plausible stall so slow requests complete
// and land in the histogram — a dropped request records no latency, and
// letting stop-and-copy shed its slowest requests would flatter its p99.
const (
	a15Interval = 20 * sim.Millisecond
	a15Service  = 2 * sim.Millisecond
	a15Timeout  = 30 * sim.Second
	a15SLOP99   = 50 * sim.Millisecond
)

// A15Mode is one full scenario run under one migration design.
type A15Mode struct {
	Mode     string  `json:"mode"`
	PackHost string  `json:"pack_host"`
	DrainS   float64 `json:"drain_s"`

	// Client-side outcome, merged across every generator.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Dropped   int64 `json:"dropped"`
	Breaches  int64 `json:"breaches"`
	P50us     int64 `json:"p50_us"`
	P99us     int64 `json:"p99_us"`
	P999us    int64 `json:"p999_us"`
	MaxUs     int64 `json:"max_us"`

	// Blame: SLO-breaching requests attributed to the migration phase
	// they overlapped, worst total stall first.
	Blame []load.Blame `json:"blame"`
}

// A15Result is everything migbench prints and BENCH_a15.json records.
// All virtual-time quantities replay exactly for a fixed seed; only the
// wall-clock trio is machine-dependent.
type A15Result struct {
	Hosts    int    `json:"hosts"`
	Replicas int    `json:"replicas"`
	DataKiB  int    `json:"data_kib"`
	Seed     uint64 `json:"seed"`

	Stop    A15Mode `json:"stop"`
	Precopy A15Mode `json:"precopy"`
	Store   A15Mode `json:"store"`

	// The headline number: stop-and-copy client p99 over store p99.
	P99Ratio float64 `json:"p99_ratio"`

	VirtualTime  float64 `json:"virtual_s"` // summed across the three runs
	Wall         float64 `json:"wall_s"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// A15SLI runs the three-mode scenario and checks the acceptance gates:
// every mode completes requests, stop-and-copy's breaches are blamed on
// actual migration phases (not just "queued"), and the full streaming
// stack's client p99 is strictly below stop-and-copy's.
func A15SLI(cfg A15Config) (*A15Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	res := &A15Result{
		Hosts: cfg.Hosts, Replicas: cfg.Replicas, DataKiB: cfg.DataKiB, Seed: cfg.Seed,
	}
	for _, mode := range []string{"stop", "precopy", "store"} {
		run, events, virtual, err := a15Run(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("a15 %s: %w", mode, err)
		}
		res.Events += events
		res.VirtualTime += virtual
		switch mode {
		case "stop":
			res.Stop = *run
		case "precopy":
			res.Precopy = *run
		case "store":
			res.Store = *run
		}
	}

	// The gates. A drain interrupts service in every design, so each
	// mode must both breach (the SLO is set below the freeze) and
	// pin its breaches on a real phase; the streaming stack must then
	// beat the paper's stop-and-copy where the client can see it.
	if res.Stop.P99us <= 0 || res.Store.P99us <= 0 {
		return res, fmt.Errorf("a15: degenerate p99 (stop=%dus store=%dus)", res.Stop.P99us, res.Store.P99us)
	}
	if res.Store.P99us >= res.Stop.P99us {
		return res, fmt.Errorf("a15: store client p99 %dus did not beat stop-and-copy %dus",
			res.Store.P99us, res.Stop.P99us)
	}
	res.P99Ratio = float64(res.Stop.P99us) / float64(res.Store.P99us)
	blamed := false
	for _, b := range res.Stop.Blame {
		if b.Phase != load.PhaseQueued {
			blamed = true
		}
	}
	if !blamed {
		return res, fmt.Errorf("a15: no stop-mode breach was attributed to a migration phase: %+v", res.Stop.Blame)
	}

	res.Wall = time.Since(start).Seconds()
	if res.Wall > 0 {
		res.EventsPerSec = float64(res.Events) / res.Wall
	}
	return res, nil
}

// a15Run is one mode's full scenario on a fresh cluster.
func a15Run(cfg A15Config, mode string) (*A15Mode, int64, float64, error) {
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
	case "stop":
		c.SetMigrationClassic(true)
		c.ConfigurePageStores(0)
	case "precopy":
		c.ConfigurePageStores(0)
	case "store":
		// Stores come up lazily at the default budget; nothing to do.
	}
	// The replica program is A14's: an incompressible LCG-filled working
	// set with a once-a-second dirtying beat — enough dirty pages that
	// pre-copy has real deltas to chase.
	if err := c.InstallVM(a15Path, a14Src(cfg.DataKiB)); err != nil {
		return nil, 0, 0, err
	}
	// Guardians stay out of the way: no Protect, and a checkpoint period
	// longer than the run so HA only carries membership.
	if err := c.StartHA(ha.Config{Interval: sim.Second, CkptInterval: 600 * sim.Second}); err != nil {
		return nil, 0, 0, err
	}
	period := 2 * sim.Second
	execStorm := sim.Duration(cfg.Replicas*cfg.DataKiB)*5*sim.Millisecond +
		sim.Duration(cfg.Replicas)*100*sim.Millisecond
	ctl, err := c.StartController("h000", controller.Config{
		Period: period, MaxActionsPerRound: cfg.Replicas + 8, DrainWave: a14DrainWave,
		SpawnGrace: execStorm + 10*sim.Second,
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
				if p.State == kernel.ProcRunning && (p.Cmd == a15Path || p.Migrated) {
					total++
					per[hn]++
				}
			}
		}
		return total, per
	}
	stepUntil := func(phase string, budget sim.Duration, ok func() bool) (sim.Duration, error) {
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
		}
	}

	// Warm-up: gossip membership before the controller starts placing.
	if err := c.RunUntil(c.Eng.Now() + sim.Time(10*sim.Second)); err != nil {
		return nil, 0, 0, err
	}

	run := &A15Mode{Mode: mode}

	// Phase 1: rollout. Bin-packing with MaxPerHost == Replicas stacks
	// the whole app on one host, which the drain will then hit.
	if err := ctl.Submit(controller.AppSpec{
		Name: "sli", Path: a15Path, Replicas: cfg.Replicas,
		Policy: "binpack", MaxPerHost: cfg.Replicas,
		Avoid: []string{"h000"},
	}); err != nil {
		return nil, 0, 0, err
	}
	converged := func() bool {
		total, _ := census()
		return ctl.Converged() && total == cfg.Replicas
	}
	if _, err := stepUntil("rollout", 2*execStorm+60*sim.Second, converged); err != nil {
		return nil, 0, 0, err
	}
	_, per := census()
	for hn, n := range per {
		if n == cfg.Replicas {
			run.PackHost = hn
		}
	}
	if run.PackHost == "" {
		return nil, 0, 0, fmt.Errorf("rollout did not pack all %d replicas on one host: %v", cfg.Replicas, per)
	}
	// No client may arrive before its server has started: wait out the
	// image loads, then the ~1.5 µs/B LCG fills, which share the packed
	// host's CPU round-robin and so all end together.
	if _, err := stepUntil("image load", 2*execStorm, func() bool { return imagesLoaded(c, a15Path) }); err != nil {
		return nil, 0, 0, err
	}
	fill := sim.Duration(cfg.Replicas*cfg.DataKiB) * 2 * sim.Millisecond
	if err := c.RunUntil(c.Eng.Now() + sim.Time(fill)); err != nil {
		return nil, 0, 0, err
	}

	// Phase 2: aim one synthetic client at each replica. The lineage
	// tracker follows a replica across migrations (globally unique pids),
	// so the same client keeps measuring the same logical server.
	machines := make([]*kernel.Machine, 0, cfg.Hosts)
	for _, hn := range c.Names() {
		machines = append(machines, c.Machine(hn))
	}
	app, ok := ctl.App("sli")
	if !ok || len(app.Replicas) != cfg.Replicas {
		return nil, 0, 0, fmt.Errorf("app status lost the replicas: %+v", app)
	}
	gens := make([]*load.Generator, 0, cfg.Replicas)
	for i, r := range app.Replicas {
		var target *kernel.Proc
		for _, p := range c.Machine(r.Host).Procs() {
			if p.PID == r.PID {
				target = p
			}
		}
		if target == nil {
			return nil, 0, 0, fmt.Errorf("replica %d (pid %d) not found on %s", i, r.PID, r.Host)
		}
		name := fmt.Sprintf("gen%02d", i)
		lin := load.NewLineage(machines, target)
		gens = append(gens, load.Start(c.Eng, c.Obs.Scope(name), load.Config{
			Name: name, Interval: a15Interval, Service: a15Service,
			Timeout: a15Timeout, Window: sim.Second,
			SLO: load.SLO{P99: a15SLOP99},
		}, lin.Target()))
	}

	// Baseline under load: the histograms learn what "healthy" means
	// before the drain perturbs anything.
	if err := c.RunUntil(c.Eng.Now() + sim.Time(10*sim.Second)); err != nil {
		return nil, 0, 0, err
	}

	// Phase 3: drain the packed host out from under the clients.
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
	if _, err := stepUntil("drain", 600*sim.Second, drained); err != nil {
		return nil, 0, 0, err
	}
	st, _ := ctl.DrainStatus(run.PackHost)
	run.DrainS = float64(st.Makespan) / float64(sim.Second)
	if st.Failed != 0 || st.Moved != cfg.Replicas {
		return nil, 0, 0, fmt.Errorf("drain of %s moved %d/%d replicas, %d failed",
			run.PackHost, st.Moved, cfg.Replicas, st.Failed)
	}

	// Settle under load on the new placement, then stop the arrival
	// schedules and let the backlog serve out.
	if err := c.RunUntil(c.Eng.Now() + sim.Time(10*sim.Second)); err != nil {
		return nil, 0, 0, err
	}
	for _, g := range gens {
		g.Stop()
	}
	drainedGens := func() bool {
		for _, g := range gens {
			if !g.Drained() {
				return false
			}
		}
		return true
	}
	if _, err := stepUntil("load drain", 2*a15Timeout, drainedGens); err != nil {
		return nil, 0, 0, err
	}

	// Harvest: merge every client's histogram (union quantiles, not
	// averaged percentiles), then blame the breaches on the phase spans.
	merged := &obs.HDR{}
	var breaches []load.Breach
	for _, g := range gens {
		merged.Merge(g.Latency())
		s := g.Stats()
		run.Submitted += s.Submitted
		run.Completed += s.Completed
		run.Dropped += s.Dropped
		breaches = append(breaches, g.Breaches()...)
	}
	run.Breaches = int64(len(breaches))
	run.P50us, run.P99us, run.P999us, run.MaxUs = merged.P50(), merged.P99(), merged.P999(), merged.Max()
	run.Blame = load.Attribute(breaches, c.Obs.Tracer.Spans())
	if run.Completed == 0 {
		return nil, 0, 0, fmt.Errorf("no requests completed")
	}
	if run.Submitted != run.Completed+run.Dropped {
		return nil, 0, 0, fmt.Errorf("request accounting leak: %d submitted, %d completed, %d dropped",
			run.Submitted, run.Completed, run.Dropped)
	}

	stats := c.Eng.Stats()
	return run, stats.Dispatched, float64(c.Eng.Now()) / float64(sim.Second), nil
}
