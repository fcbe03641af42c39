package scenario

import (
	"fmt"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/load"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

var user = cluster.DefaultUser

// ref is the runner's live bookkeeping for one workload: its pid lineage
// (original pid plus every migrated/restored successor), where the live
// copy is believed to be, and what the scenario expects of it.
type ref struct {
	wl   Workload
	proc *kernel.Proc // the original spawn (await_ready polls its VM)

	pids   map[string]bool // pid lineage as "host:pid" keys, grown by the census
	curPID int
	home   string

	// state tracks what the invariants may demand: a live workload must
	// have exactly one running copy; a pending-recovery one (protected,
	// home crashed) may have zero or one while the buddy works; a dead one
	// (unprotected, home crashed) is excused.
	state    refState
	inFlight int // outstanding migrate_async transactions

	buddy    string  // protection buddy ("" unprotected)
	protPID  int     // pid the protection was registered with
	protHome string  // home at protect time (the checkpoint table key)
	rate     float64 // counts/second from calibrate (counterhog only)

	crashAt    sim.Time
	ctrCrash   uint32 // progress counter at the crash instant
	ckptCrash  int    // checkpoints committed at the crash instant
	recoveries int    // matching guard recoveries already consumed
}

type refState int

const (
	refLive refState = iota
	refPendingRecovery
	refDead
)

type pendingMig struct {
	proc *kernel.Proc
	out  *migOutcome
}

// appRef is the runner's ground-truth bookkeeping for one controller
// app: the pid lineage of every replica the controller has ever run
// (fresh spawns recognized by program path, migrated and restored
// successors adopted by their OldHost:OldPID chain). The controller's
// own view is deliberately not consulted — the replicas-converged
// invariant audits the kernels against the spec, so it still fires when
// the controller is wrong, stopped, or sabotaged.
type appRef struct {
	ap        App
	pids      map[string]bool // lineage as "host:pid" keys
	submitted bool
}

type runner struct {
	sc   *Scenario
	c    *cluster.Cluster
	res  *Result
	refs map[string]*ref
	// wlOrder preserves Workloads order for deterministic iteration.
	wlOrder []string
	apps    map[string]*appRef
	// appOrder preserves Apps order for deterministic iteration.
	appOrder []string
	pending  []pendingMig
	prevCtr  map[string]int64
	// gens holds the SLI-plane generators, keyed by LoadSpec name;
	// iteration always follows sc.Load order.
	gens map[string]*load.Generator
}

// Run executes one scenario to quiescence and reports what happened. An
// error is a harness failure (bad scenario, boot failure, a wait that hit
// its deadline); invariant failures are not errors — they land in
// Result.Violations so the caller can emit a replay artifact.
func Run(sc *Scenario) (*Result, error) {
	if err := validate(sc); err != nil {
		return nil, err
	}
	var specs []cluster.HostSpec
	for _, h := range sc.Hosts {
		specs = append(specs, cluster.HostSpec{Name: h, ISA: vm.ISA1})
	}
	c, err := cluster.New(cluster.Options{Hosts: specs, Config: kernel.Config{TrackNames: true}})
	if err != nil {
		return nil, err
	}
	defer c.Eng.Close()
	// Boot order is part of every pinned result: the stock test program
	// is installed before the seed is applied, workload programs after.
	if err := c.InstallVM("/bin/counter", cluster.TestProgramSrc); err != nil {
		return nil, err
	}
	c.Eng.Seed(sc.Seed)
	installed := map[string]bool{}
	for _, w := range sc.Workloads {
		path := binPath(w)
		if installed[path] {
			continue
		}
		installed[path] = true
		src, err := progSrc(w)
		if err != nil {
			return nil, err
		}
		if err := c.InstallVM(path, src); err != nil {
			return nil, err
		}
	}
	for _, a := range sc.Apps {
		src, err := appSrc(a)
		if err != nil {
			return nil, err
		}
		if err := c.InstallVM(appBinPath(a.Name), src); err != nil {
			return nil, err
		}
	}
	if sc.HA != nil {
		if err := c.StartHA(ha.Config{Interval: sc.HA.Interval, CkptInterval: sc.HA.CkptInterval}); err != nil {
			return nil, err
		}
	}
	if sc.Controller != nil {
		cfg := controller.Config{Period: sc.Controller.Period, DrainWave: sc.Controller.DrainWave}
		if _, err := c.StartController(sc.Controller.Host, cfg); err != nil {
			return nil, err
		}
	}
	r := &runner{
		sc: sc, c: c,
		res:     &Result{Name: sc.Name, Seed: sc.Seed, Workloads: map[string]*WorkloadOutcome{}},
		refs:    map[string]*ref{},
		apps:    map[string]*appRef{},
		prevCtr: map[string]int64{},
		gens:    map[string]*load.Generator{},
	}
	for _, a := range sc.Apps {
		r.apps[a.Name] = &appRef{ap: a, pids: map[string]bool{}}
		r.appOrder = append(r.appOrder, a.Name)
	}
	var fail error
	c.Eng.Go("driver", func(tk *sim.Task) { fail = r.drive(tk) })
	if err := c.Run(); err != nil {
		return nil, err
	}
	if fail != nil {
		return nil, fail
	}
	return r.res, nil
}

func validate(sc *Scenario) error {
	if len(sc.Hosts) == 0 {
		return fmt.Errorf("scenario %q: no hosts", sc.Name)
	}
	hosts := map[string]bool{}
	for _, h := range sc.Hosts {
		hosts[h] = true
	}
	wls := map[string]bool{}
	for _, w := range sc.Workloads {
		if !hosts[w.Host] {
			return fmt.Errorf("scenario %q: workload %q on unknown host %q", sc.Name, w.Name, w.Host)
		}
		if wls[w.Name] {
			return fmt.Errorf("scenario %q: duplicate workload %q", sc.Name, w.Name)
		}
		wls[w.Name] = true
		if _, err := progSrc(w); err != nil {
			return err
		}
	}
	if sc.Controller != nil {
		if sc.HA == nil {
			return fmt.Errorf("scenario %q: controller requires ha", sc.Name)
		}
		if !hosts[sc.Controller.Host] {
			return fmt.Errorf("scenario %q: controller on unknown host %q", sc.Name, sc.Controller.Host)
		}
	}
	aps := map[string]bool{}
	for _, a := range sc.Apps {
		if sc.Controller == nil {
			return fmt.Errorf("scenario %q: app %q without a controller", sc.Name, a.Name)
		}
		if aps[a.Name] {
			return fmt.Errorf("scenario %q: duplicate app %q", sc.Name, a.Name)
		}
		aps[a.Name] = true
		if _, err := appSrc(a); err != nil {
			return err
		}
		spec := a.spec()
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		for _, h := range append(append([]string{}, a.Hosts...), a.Avoid...) {
			if !hosts[h] {
				return fmt.Errorf("scenario %q: app %q constrains unknown host %q", sc.Name, a.Name, h)
			}
		}
	}
	for i, ev := range sc.Events {
		if !knownOps[ev.Op] {
			return fmt.Errorf("scenario %q: event %d: unknown op %q", sc.Name, i, ev.Op)
		}
		if opNeedsWorkload[ev.Op] && !wls[ev.Workload] {
			return fmt.Errorf("scenario %q: event %d (%s): unknown workload %q", sc.Name, i, ev.Op, ev.Workload)
		}
		if opNeedsHA[ev.Op] && sc.HA == nil {
			return fmt.Errorf("scenario %q: event %d (%s): requires ha", sc.Name, i, ev.Op)
		}
		if opNeedsController[ev.Op] && sc.Controller == nil {
			return fmt.Errorf("scenario %q: event %d (%s): requires a controller", sc.Name, i, ev.Op)
		}
		if opNeedsApp[ev.Op] && !aps[ev.App] {
			return fmt.Errorf("scenario %q: event %d (%s): unknown app %q", sc.Name, i, ev.Op, ev.App)
		}
	}
	gens := map[string]bool{}
	for _, ls := range sc.Load {
		if ls.Name == "" {
			return fmt.Errorf("scenario %q: load spec without a name", sc.Name)
		}
		if gens[ls.Name] || wls[ls.Name] {
			return fmt.Errorf("scenario %q: duplicate load/workload name %q", sc.Name, ls.Name)
		}
		gens[ls.Name] = true
		if !wls[ls.Workload] {
			return fmt.Errorf("scenario %q: load %q targets unknown workload %q", sc.Name, ls.Name, ls.Workload)
		}
		if ls.Interval <= 0 || ls.Service <= 0 {
			return fmt.Errorf("scenario %q: load %q needs positive interval and service", sc.Name, ls.Name)
		}
	}
	return nil
}

var knownOps = map[string]bool{
	"sleep": true, "await_ready": true, "calibrate": true,
	"fault_port": true, "fault_link": true, "clear_faults": true,
	"partition": true, "heal": true,
	"crash_after": true, "crash": true, "revive": true,
	"protect": true, "await_ckpt": true,
	"migrate": true, "migrate_async": true, "await_migrations": true,
	"await_recovery": true,
	"counter_bump":   true, "inject_dup": true, "inject_kill": true,
	"submit_app": true, "drain_host": true, "await_converged": true,
	"controller_stop": true, "app_kill": true,
}

var opNeedsWorkload = map[string]bool{
	"await_ready": true, "calibrate": true, "protect": true,
	"await_ckpt": true, "migrate": true, "migrate_async": true,
	"await_recovery": true, "inject_dup": true, "inject_kill": true,
}

var opNeedsHA = map[string]bool{
	"protect": true, "await_ckpt": true, "await_recovery": true,
}

var opNeedsController = map[string]bool{
	"submit_app": true, "drain_host": true, "await_converged": true,
	"controller_stop": true, "app_kill": true,
}

var opNeedsApp = map[string]bool{
	"submit_app": true, "app_kill": true,
}

// drive is the scenario's single driver task: spawn the workloads, walk
// the schedule, settle, run the quiesce checks, and tear the cluster down
// so the engine can quiesce. Returns a harness error, never an invariant
// verdict.
func (r *runner) drive(tk *sim.Task) error {
	c := r.c
	defer func() {
		// Generators first: a still-polling client would keep the engine
		// alive forever once its target is killed below.
		for _, ls := range r.sc.Load {
			if g := r.gens[ls.Name]; g != nil {
				g.Abort()
			}
		}
		c.Net.ClearFaults()
		c.Net.Heal()
		if r.sc.Controller != nil {
			c.StopController()
		}
		if r.sc.HA != nil {
			c.StopHA()
		}
		for _, name := range c.Names() {
			for _, p := range c.Machine(name).Procs() {
				c.Machine(name).Kill(kernel.Creds{}, p.PID, kernel.SIGKILL)
			}
		}
	}()
	for _, w := range r.sc.Workloads {
		p, err := c.Spawn(w.Host, nil, user, binPath(w))
		if err != nil {
			return fmt.Errorf("scenario %q: spawn %s: %w", r.sc.Name, w.Name, err)
		}
		r.refs[w.Name] = &ref{
			wl: w, proc: p,
			pids: map[string]bool{hp(w.Host, p.PID): true}, curPID: p.PID, home: w.Host,
		}
		r.wlOrder = append(r.wlOrder, w.Name)
	}
	var machines []*kernel.Machine
	for _, name := range c.Names() {
		machines = append(machines, c.Machine(name))
	}
	for _, ls := range r.sc.Load {
		lin := load.NewLineage(machines, r.refs[ls.Workload].proc)
		r.gens[ls.Name] = load.Start(c.Eng, c.Obs.Scope(ls.Name), load.Config{
			Name: ls.Name, Interval: ls.Interval, Service: ls.Service,
			Timeout: ls.Timeout, Window: ls.Window,
			SLO: load.SLO{P99: ls.SLOP99},
		}, lin.Target())
	}
	for i, ev := range r.sc.Events {
		if err := r.exec(tk, ev); err != nil {
			return fmt.Errorf("scenario %q: event %d (%s): %w", r.sc.Name, i, ev.Op, err)
		}
		r.res.Events = i + 1
		r.checkAfterEvent(tk, i)
		if len(r.res.Violations) > 0 {
			break // first violation wins; the artifact replays from here
		}
	}
	if r.sc.Settle > 0 {
		tk.Sleep(r.sc.Settle)
	}
	// Retire the request generators before the quiesce checks so the SLO
	// invariant judges a settled count. A backlog that cannot drain (the
	// target died for good) is force-dropped after a grace period.
	for _, ls := range r.sc.Load {
		g := r.gens[ls.Name]
		g.Stop()
		if !g.AwaitDrainedFor(tk, 30*sim.Second) {
			g.Abort()
			g.AwaitDrained(tk)
		}
	}
	r.checkQuiesce(tk)
	return nil
}

// resolveHost resolves a literal host name or the "@home:<wl>" /
// "@buddy:<wl>" indirections against the live bookkeeping.
func (r *runner) resolveHost(name string) (string, error) {
	const homeP, buddyP = "@home:", "@buddy:"
	switch {
	case len(name) > len(homeP) && name[:len(homeP)] == homeP:
		ref := r.refs[name[len(homeP):]]
		if ref == nil {
			return "", fmt.Errorf("unknown workload in %q", name)
		}
		return ref.home, nil
	case len(name) > len(buddyP) && name[:len(buddyP)] == buddyP:
		ref := r.refs[name[len(buddyP):]]
		if ref == nil {
			return "", fmt.Errorf("unknown workload in %q", name)
		}
		if ref.buddy == "" {
			return "", fmt.Errorf("workload in %q is not protected", name)
		}
		return ref.buddy, nil
	default:
		if r.c.Machine(name) == nil {
			return "", fmt.Errorf("unknown host %q", name)
		}
		return name, nil
	}
}

func (r *runner) exec(tk *sim.Task, ev Event) error {
	c := r.c
	switch ev.Op {
	case "sleep":
		tk.Sleep(ev.Dur)

	case "await_ready":
		p := r.refs[ev.Workload].proc
		for p.VM == nil && p.State == kernel.ProcRunning {
			tk.Sleep(sim.Second)
		}

	case "calibrate":
		rf := r.refs[ev.Workload]
		dur := ev.Dur
		if dur <= 0 {
			dur = 2 * sim.Second
		}
		c0, t0 := progressCounter(rf.proc), tk.Now()
		tk.Sleep(dur)
		rate := float64(progressCounter(rf.proc)-c0) / (float64(tk.Now()-t0) / float64(sim.Second))
		if rate <= 0 {
			return fmt.Errorf("workload %s not counting (is it a counterhog?)", ev.Workload)
		}
		rf.rate = rate

	case "fault_port":
		c.Net.FaultPort(ev.Port, netsim.FaultSpec{Drop: ev.Drop, Dup: ev.Dup, Delay: ev.Delay})

	case "fault_link":
		from, err := r.resolveHost(ev.From)
		if err != nil {
			return err
		}
		to, err := r.resolveHost(ev.To)
		if err != nil {
			return err
		}
		c.Net.FaultLink(from, to, netsim.FaultSpec{Drop: ev.Drop, Dup: ev.Dup, Delay: ev.Delay})

	case "clear_faults":
		c.Net.ClearFaults()

	case "partition":
		groups := make([][]string, 0, len(ev.Groups))
		for _, g := range ev.Groups {
			grp := make([]string, 0, len(g))
			for _, h := range g {
				hn, err := r.resolveHost(h)
				if err != nil {
					return err
				}
				grp = append(grp, hn)
			}
			groups = append(groups, grp)
		}
		c.Net.Partition(groups...)

	case "heal":
		c.Net.Heal()

	case "crash_after":
		host, err := r.resolveHost(ev.Host)
		if err != nil {
			return err
		}
		c.NetHost(host).CrashAfter(ev.Port, ev.N)

	case "crash":
		host, err := r.resolveHost(ev.Host)
		if err != nil {
			return err
		}
		now := tk.Now()
		for _, name := range r.wlOrder {
			rf := r.refs[name]
			if rf.home != host || rf.state != refLive {
				continue
			}
			if rf.buddy != "" {
				// Snapshot the progress the buddy must beat: these reads
				// consume no virtual time, so the crash instant is exact.
				if p, ok := c.Machine(rf.home).FindProc(rf.curPID); ok {
					rf.ctrCrash = progressCounter(p)
				}
				rf.ckptCrash = c.HA(rf.buddy).Guard.CommittedSeq(rf.protHome, rf.protPID)
				rf.crashAt = now
				rf.state = refPendingRecovery
			} else {
				rf.state = refDead // power failure; nobody will restart it
			}
		}
		c.Crash(host)

	case "revive":
		host, err := r.resolveHost(ev.Host)
		if err != nil {
			return err
		}
		return c.ReviveHost(host)

	case "protect":
		rf := r.refs[ev.Workload]
		buddy, err := r.resolveHost(ev.To)
		if err != nil {
			return err
		}
		c.HA(rf.home).Guard.Protect(rf.curPID, buddy)
		rf.buddy, rf.protPID, rf.protHome = buddy, rf.curPID, rf.home

	case "await_ckpt":
		rf := r.refs[ev.Workload]
		if rf.buddy == "" {
			return fmt.Errorf("workload %s is not protected", ev.Workload)
		}
		guard := c.HA(rf.buddy).Guard
		minSeq := ev.N
		if minSeq <= 0 {
			minSeq = 2
		}
		wait := ev.Dur
		if wait <= 0 {
			wait = 20*r.sc.HA.CkptInterval + 90*sim.Second
		}
		deadline := tk.Now() + sim.Time(wait)
		for guard.CommittedSeq(rf.protHome, rf.protPID) < minSeq && tk.Now() < deadline {
			tk.Sleep(100 * sim.Millisecond)
		}
		if guard.CommittedSeq(rf.protHome, rf.protPID) < minSeq {
			return fmt.Errorf("workload %s: no %d committed checkpoints before the deadline", ev.Workload, minSeq)
		}

	case "migrate":
		p, out, err := r.startMigration(tk, ev)
		if err != nil {
			return err
		}
		r.finishMigration(tk, p, out)

	case "migrate_async":
		p, out, err := r.startMigration(tk, ev)
		if err != nil {
			return err
		}
		r.pending = append(r.pending, pendingMig{proc: p, out: out})

	case "await_migrations":
		for _, pm := range r.pending {
			r.finishMigration(tk, pm.proc, pm.out)
		}
		r.pending = nil

	case "await_recovery":
		return r.awaitRecovery(tk, ev)

	case "counter_bump":
		host, err := r.resolveHost(ev.Host)
		if err != nil {
			return err
		}
		c.Obs.Scope(host).Counter("scenario.probe").Add(int64(ev.N))

	case "inject_dup":
		// Deliberately start a second live copy inside the workload's
		// lineage — the checker must call this a violation.
		rf := r.refs[ev.Workload]
		host, err := r.resolveHost(ev.Host)
		if err != nil {
			return err
		}
		p, err := c.Spawn(host, nil, user, binPath(rf.wl))
		if err != nil {
			return err
		}
		rf.pids[hp(host, p.PID)] = true

	case "submit_app":
		ar := r.apps[ev.App]
		if err := c.Controller().Submit(ar.ap.spec()); err != nil {
			return err
		}
		ar.submitted = true

	case "drain_host":
		host, err := r.resolveHost(ev.Host)
		if err != nil {
			return err
		}
		if err := c.DrainHost(host); err != nil {
			return err
		}
		wait := ev.Dur
		if wait <= 0 {
			wait = 240 * sim.Second
		}
		deadline := tk.Now() + sim.Time(wait)
		for {
			if ds, ok := c.Controller().DrainStatus(host); ok && ds.Done {
				break
			}
			if tk.Now() >= deadline {
				return fmt.Errorf("drain of %s not done before the deadline", host)
			}
			tk.Sleep(sim.Second)
		}

	case "await_converged":
		wait := ev.Dur
		if wait <= 0 {
			wait = 120 * sim.Second
		}
		deadline := tk.Now() + sim.Time(wait)
		for !c.Controller().Converged() {
			if tk.Now() >= deadline {
				return fmt.Errorf("controller not converged before the deadline: %+v",
					c.Controller().Status())
			}
			tk.Sleep(sim.Second)
		}

	case "controller_stop":
		c.StopController()

	case "app_kill":
		// Kill one running replica behind the controller's back: the
		// ground-truth census finds a victim, the kernel kills it, the
		// controller is told nothing. With the reconcile loop running this
		// is healed within a few rounds; with it stopped, the
		// replicas-converged invariant must call the deficit out.
		copies := r.replicaCensus()[ev.App]
		if len(copies) == 0 {
			return fmt.Errorf("app %s has no running replica to kill", ev.App)
		}
		victim := copies[0]
		p, ok := c.Machine(victim.host).FindProc(victim.pid)
		if !ok {
			return fmt.Errorf("app %s: pid %d not found on %s", ev.App, victim.pid, victim.host)
		}
		c.Machine(victim.host).Kill(kernel.Creds{}, victim.pid, kernel.SIGKILL)
		p.AwaitExit(tk)

	case "inject_kill":
		rf := r.refs[ev.Workload]
		p, ok := c.Machine(rf.home).FindProc(rf.curPID)
		if !ok {
			return fmt.Errorf("workload %s: pid %d not found on %s", ev.Workload, rf.curPID, rf.home)
		}
		c.Machine(rf.home).Kill(kernel.Creds{}, rf.curPID, kernel.SIGKILL)
		// The signal lands in the victim's own context; wait for the death
		// so this event's own invariant check sees it.
		p.AwaitExit(tk)

	default:
		return fmt.Errorf("unknown op %q", ev.Op)
	}
	return nil
}

// migOutcome carries a migration's bookkeeping between start and finish.
type migOutcome struct {
	MigrationOutcome
	rf     *ref
	srcPID int
}

// startMigration spawns rmigrate for one workload on the event's client
// host.
func (r *runner) startMigration(tk *sim.Task, ev Event) (*kernel.Proc, *migOutcome, error) {
	rf := r.refs[ev.Workload]
	from := rf.home
	if ev.From != "" {
		f, err := r.resolveHost(ev.From)
		if err != nil {
			return nil, nil, err
		}
		from = f
	}
	to, err := r.resolveHost(ev.To)
	if err != nil {
		return nil, nil, err
	}
	client, err := r.resolveHost(ev.Host)
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-p", fmt.Sprint(rf.curPID), "-f", from, "-t", to}
	if ev.Stream {
		rounds := ev.Rounds
		if rounds == "" {
			rounds = "2"
		}
		chunks := ev.Chunks
		if chunks <= 0 {
			chunks = 4
		}
		args = append(args, "-s", "-r", rounds, "-n", fmt.Sprint(chunks))
	}
	out := &migOutcome{
		MigrationOutcome: MigrationOutcome{Workload: ev.Workload, From: from, To: to, Start: tk.Now()},
		rf:               rf, srcPID: rf.curPID,
	}
	p, err := r.c.Spawn(client, nil, user, "/bin/rmigrate", args...)
	if err != nil {
		return nil, nil, err
	}
	rf.inFlight++
	return p, out, nil
}

// finishMigration awaits the rmigrate client and folds the outcome into
// the bookkeeping: a committed transaction moves the workload's home, an
// aborted one leaves it where it was.
func (r *runner) finishMigration(tk *sim.Task, p *kernel.Proc, out *migOutcome) {
	status := p.AwaitExit(tk)
	out.Total = sim.Duration(tk.Now() - out.Start)
	out.Freeze = r.c.Machine(out.From).Metrics.LastDump.Real
	out.Committed = status == 0
	out.rf.inFlight--
	if out.Committed {
		out.rf.home = out.To
		// The commit ack races the tail of the transaction on both ends:
		// the source migd kills the original a beat after the client hears
		// "committed", and the destination's restart proc overlays itself
		// (rest_proc sets Migrated) a beat after that. Wait both out so
		// the census right after this event sees neither a doomed original
		// as a duplicate nor the overlay gap as a vanished process.
		if p, ok := r.c.Machine(out.From).FindProc(out.srcPID); ok && p.State == kernel.ProcRunning {
			p.AwaitExit(tk)
		}
		deadline := tk.Now() + sim.Time(10*sim.Second)
		dest := r.findDest(out)
		for dest == nil && tk.Now() < deadline {
			tk.Sleep(10 * sim.Millisecond)
			dest = r.findDest(out)
		}
		// Adopt the restored copy explicitly: the stop-and-copy restore
		// path recovers the source host only best-effort (OldHost may be
		// empty), so the census can't always chain the lineage on its own.
		if dest != nil {
			out.rf.pids[hp(out.To, dest.PID)] = true
			out.rf.curPID = dest.PID
		}
	}
	r.res.Migrations = append(r.res.Migrations, out.MigrationOutcome)
}

// awaitRecovery polls the buddy guardian until it has restarted the
// workload (or the deadline passes), then settles the recovery accounting:
// restored-from checkpoint, recovery latency, and lost work from the
// progress-counter gap.
func (r *runner) awaitRecovery(tk *sim.Task, ev Event) error {
	rf := r.refs[ev.Workload]
	if rf.buddy == "" {
		return fmt.Errorf("workload %s is not protected", ev.Workload)
	}
	guard := r.c.HA(rf.buddy).Guard
	wait := ev.Dur
	if wait <= 0 {
		wait = 60 * sim.Second
	}
	deadline := tk.Now() + sim.Time(wait)
	find := func() *ha.Recovery {
		for i := rf.recoveries; i < len(guard.Recoveries); i++ {
			rec := &guard.Recoveries[i]
			if rec.Source == rf.protHome && rec.PID == rf.protPID {
				return rec
			}
		}
		return nil
	}
	rec := find()
	for rec == nil && tk.Now() < deadline {
		tk.Sleep(250 * sim.Millisecond)
		rec = find()
	}
	if rec == nil {
		return fmt.Errorf("workload %s: buddy %s never attempted recovery", ev.Workload, rf.buddy)
	}
	rf.recoveries = len(guard.Recoveries)
	out := RecoveryOutcome{
		Workload:    ev.Workload,
		Buddy:       rf.buddy,
		Checkpoints: rf.ckptCrash,
		Recovery:    sim.Duration(tk.Now() - rf.crashAt),
		Resumed:     rec.Status == 0,
	}
	if rp, ok := r.c.Machine(rf.buddy).FindProc(rec.NewPID); ok {
		ctrRec := progressCounter(rp)
		if ctrRec < rf.ctrCrash && rf.rate > 0 {
			out.LostWork = sim.Duration(float64(rf.ctrCrash-ctrRec) / rf.rate * float64(sim.Second))
		}
	}
	r.res.Recoveries = append(r.res.Recoveries, out)
	if rec.Status == 0 {
		rf.pids[hp(rf.buddy, rec.NewPID)] = true
		rf.state = refLive
		rf.home = rf.buddy
		rf.curPID = rec.NewPID
		// The restored copy is not re-protected: protection was consumed.
		rf.buddy = ""
	}
	return nil
}

// findDest locates the committed migration's restored copy on the
// destination. An empty OldHost matches: the plain restart path recovers
// the source host best-effort only.
func (r *runner) findDest(out *migOutcome) *kernel.Proc {
	for _, p := range r.c.Machine(out.To).Procs() {
		if p.Migrated && p.OldPID == out.srcPID && p.State == kernel.ProcRunning &&
			(p.OldHost == out.From || p.OldHost == "") {
			return p
		}
	}
	return nil
}

// progressCounter reads a counterhog's first data word (0 for anything
// without a mapped VM).
func progressCounter(p *kernel.Proc) uint32 {
	if p == nil || p.VM == nil {
		return 0
	}
	v, _ := p.VM.ReadU32(vm.DataBase(len(p.VM.Text)))
	return v
}
