package controller

import (
	"sort"

	"procmig/internal/ha"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// Config tunes the reconcile loop. Zero values take defaults scaled off
// Period, so a scenario only ever has to pick the cadence.
type Config struct {
	// Period is the reconcile cadence (default 2s).
	Period sim.Duration
	// SpawnGrace is how long a freshly spawned, adopted or moved replica
	// may stay out of its host's census answers before it is presumed
	// failed (default 3×Period).
	SpawnGrace sim.Duration
	// DeadGrace is how long a host must stay not-alive before its
	// unprotected replicas are respawned elsewhere (default 2×Period;
	// suspicion can be false, and the orphan reaper cleans up if so).
	DeadGrace sim.Duration
	// RecoveryGrace is how long a protected replica on a dead host waits
	// for its guardian's restart before the controller gives up and
	// respawns from scratch (default 8×Period — arbitration plus restart
	// take several heartbeat intervals).
	RecoveryGrace sim.Duration
	// MaxActionsPerRound caps spawns+kills+constraint-moves per round
	// (default 4), so convergence is rate-limited and a huge deficit
	// cannot stampede the network. Drains have their own cap.
	MaxActionsPerRound int
	// DrainWave is the drain concurrency cap: at most this many
	// migrations in flight per draining host (default 4).
	DrainWave int
}

func (cfg Config) withDefaults() Config {
	if cfg.Period <= 0 {
		cfg.Period = 2 * sim.Second
	}
	if cfg.SpawnGrace <= 0 {
		cfg.SpawnGrace = 3 * cfg.Period
	}
	if cfg.DeadGrace <= 0 {
		cfg.DeadGrace = 2 * cfg.Period
	}
	if cfg.RecoveryGrace <= 0 {
		cfg.RecoveryGrace = 8 * cfg.Period
	}
	if cfg.MaxActionsPerRound <= 0 {
		cfg.MaxActionsPerRound = 4
	}
	if cfg.DrainWave <= 0 {
		cfg.DrainWave = 4
	}
	return cfg
}

// Controller owns desired state and reconciles the cluster toward it.
// One instance runs per cluster (on Host), driven by a single engine
// task; all methods are called from engine tasks, so plain fields are
// safe — the engine runs one task at a time.
type Controller struct {
	Host string // where the controller runs; actions are driven from here

	cfg     Config
	act     Actuator
	eng     *sim.Engine
	tracer  *obs.Tracer
	stopped bool

	apps     map[string]*app
	appOrder []string

	drains     map[string]*drain
	drainOrder []string
	cordoned   map[string]bool

	orphans []orphan
	watched []watchedProt

	round int64

	// Round-local scratch, reused to keep the loop allocation-light.
	view         []ha.Member
	byHost       map[string]*ha.Member
	censuses     map[string]census // this round's answers, by host
	repScratch   []*replica
	candScratch  []cand
	countScratch map[string]int
	ownedScratch map[string]int
	overScratch  map[string]int

	// Metrics (resolved once in New). mDrainFailBy caches the per-reason
	// drain-failure counters (controller.drain_failed.<reason>), resolved
	// lazily off scope on the first failure of each kind.
	mRounds, mSpawn, mSpawnFail, mKill, mMove, mMoveFail   *obs.Counter
	mRespawn, mAdopt, mLost, mReap, mProtect, mProtectFail *obs.Counter
	mDrainWave, mDrainMove, mDrainFail, mDrainStuck        *obs.Counter
	gApps, gDesired, gLive, gDeviation                     *obs.Gauge
	scope                                                  *obs.Scope
	mDrainFailBy                                           map[string]*obs.Counter
}

// New builds a controller running on host, acting through act, reporting
// into reg (which may be nil for bare tests).
func New(host string, act Actuator, cfg Config, reg *obs.Registry) *Controller {
	c := &Controller{
		Host:         host,
		cfg:          cfg.withDefaults(),
		act:          act,
		apps:         map[string]*app{},
		drains:       map[string]*drain{},
		cordoned:     map[string]bool{},
		byHost:       map[string]*ha.Member{},
		censuses:     map[string]census{},
		countScratch: map[string]int{},
		ownedScratch: map[string]int{},
		overScratch:  map[string]int{},
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := reg.Scope(host)
	c.tracer = reg.Tracer
	c.mRounds = s.Counter("controller.rounds")
	c.mSpawn = s.Counter("controller.spawns")
	c.mSpawnFail = s.Counter("controller.spawn_failed")
	c.mKill = s.Counter("controller.kills")
	c.mMove = s.Counter("controller.moves")
	c.mMoveFail = s.Counter("controller.move_failed")
	c.mRespawn = s.Counter("controller.respawns")
	c.mAdopt = s.Counter("controller.adoptions")
	c.mLost = s.Counter("controller.replicas_lost")
	c.mReap = s.Counter("controller.orphans_reaped")
	c.mProtect = s.Counter("controller.protects")
	c.mProtectFail = s.Counter("controller.protect_failed")
	c.mDrainWave = s.Counter("controller.drain_waves")
	c.mDrainMove = s.Counter("controller.drain_moves")
	c.mDrainFail = s.Counter("controller.drain_failed")
	c.mDrainStuck = s.Counter("controller.drain_stuck")
	c.scope = s
	c.mDrainFailBy = map[string]*obs.Counter{}
	c.gApps = s.Gauge("controller.apps")
	c.gDesired = s.Gauge("controller.replicas_desired")
	c.gLive = s.Gauge("controller.replicas_live")
	c.gDeviation = s.Gauge("controller.deviation")
	return c
}

// Config reports the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Submit registers or updates an app spec. An update keeps the existing
// replicas and lets the reconciler converge the differences (count,
// constraints, policy). Replicas beyond a shrunken count are killed by
// the next rounds.
func (c *Controller) Submit(spec AppSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	a, ok := c.apps[spec.Name]
	if !ok {
		a = &app{spec: spec}
		c.apps[spec.Name] = a
		c.appOrder = append(c.appOrder, spec.Name)
	} else {
		a.spec = spec
	}
	return nil
}

// App reports one app's status (false when unknown).
func (c *Controller) App(name string) (AppStatus, bool) {
	a, ok := c.apps[name]
	if !ok {
		return AppStatus{}, false
	}
	return c.appStatus(a), true
}

func (c *Controller) appStatus(a *app) AppStatus {
	st := AppStatus{Name: a.spec.Name, Desired: a.spec.Replicas}
	for _, r := range a.replicas {
		if r.state == repLive {
			st.Live++
		} else {
			st.Pending++
		}
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Slot: r.slot, Host: r.host, PID: r.pid, State: r.state.String(),
		})
	}
	sort.Slice(st.Replicas, func(i, j int) bool { return st.Replicas[i].Slot < st.Replicas[j].Slot })
	return st
}

// Status reports the whole controller's state.
func (c *Controller) Status() Status {
	st := Status{Round: c.round}
	for _, name := range c.appOrder {
		st.Apps = append(st.Apps, c.appStatus(c.apps[name]))
	}
	for _, h := range c.drainOrder {
		st.Drains = append(st.Drains, c.drains[h].status())
	}
	return st
}

// Converged reports whether every app is at desired state (right count,
// nothing pending or moving) and every drain has finished.
func (c *Controller) Converged() bool {
	st := c.Status()
	return st.Converged()
}

// Start spawns the reconcile loop on eng. Stop ends it at the next tick.
func (c *Controller) Start(eng *sim.Engine) {
	c.eng = eng
	eng.Go("controller:"+c.Host, func(t *sim.Task) {
		for !c.stopped {
			t.Sleep(c.cfg.Period)
			if c.stopped {
				return
			}
			c.Round(t)
		}
	})
}

// Stop ends the reconcile loop at its next tick (idempotent).
func (c *Controller) Stop() { c.stopped = true }

// Round runs one reconcile round: snapshot the view, ask the replicas'
// hosts for their censuses, re-judge every replica against the answers,
// advance drains, then diff each app and act. Migrations run as their
// own tasks, so the round never parks on one. Exposed so tests and
// experiments can single-step the controller.
func (c *Controller) Round(t *sim.Task) {
	now := t.Now()
	c.round++
	c.mRounds.Inc()

	view := c.act.View(c.view)
	c.view = view
	for k := range c.byHost {
		delete(c.byHost, k)
	}
	for i := range view {
		c.byHost[view[i].Host] = &view[i]
	}

	c.askCensuses(t)
	c.judge(now)
	c.reap(t, now)
	c.drainStep(view, now)

	budget := c.cfg.MaxActionsPerRound
	for _, name := range c.appOrder {
		budget = c.reconcileApp(t, c.apps[name], view, now, budget)
	}
	c.updateGauges()
}

func (c *Controller) updateGauges() {
	desired, live := 0, 0
	for _, name := range c.appOrder {
		a := c.apps[name]
		desired += a.spec.Replicas
		for _, r := range a.replicas {
			if r.state == repLive {
				live++
			}
		}
	}
	c.gApps.Set(int64(len(c.appOrder)))
	c.gDesired.Set(int64(desired))
	c.gLive.Set(int64(live))
	dev := desired - live
	if dev < 0 {
		dev = -dev
	}
	c.gDeviation.Set(int64(dev))
}

// reconcileApp diffs one app against its spec and spends up to budget
// actions closing the gap. Order matters: kill surplus first (frees
// capacity and per-host cap slots), then spawn deficits, then move
// constraint violators, then (free, not budgeted) refresh guardian
// protection. A moving replica belongs to its move until the move
// completes: no step here touches it.
func (c *Controller) reconcileApp(t *sim.Task, a *app, view []ha.Member, now sim.Time, budget int) int {
	// Surplus: desired shrank (or an adoption raced a respawn). Kill the
	// newest replicas first — the oldest have the most accumulated work.
	for len(a.replicas) > a.spec.Replicas && budget > 0 {
		var victim *replica
		for _, r := range a.replicas {
			if r.state != repMoving && (victim == nil || newer(r, victim)) {
				victim = r
			}
		}
		if victim == nil {
			break // every replica is moving; the surplus waits for them
		}
		if err := c.act.Kill(t, victim.host, victim.pid); err != nil && c.hostAlive(victim.host) {
			break // kill on a live host failed; retry next round
		}
		drop(a, victim)
		c.mKill.Inc()
		budget--
	}

	// Deficit: spawn missing replicas.
	for len(a.replicas) < a.spec.Replicas && budget > 0 {
		host := c.place(a, view, "")
		if host == "" {
			break // placement pressure; counted via deviation gauge
		}
		pid, err := c.act.Spawn(t, host, a.spec.Path)
		if err != nil {
			c.mSpawnFail.Inc()
			break
		}
		r := &replica{
			slot: a.nextSlot, host: host, pid: pid,
			state: repPending, since: now,
		}
		a.nextSlot++
		a.replicas = append(a.replicas, r)
		if a.respawnDebt > 0 {
			a.respawnDebt--
			c.mRespawn.Inc()
		} else {
			c.mSpawn.Inc()
		}
		budget--
	}

	// Constraint violations: migrate live replicas off denied/cordoned/
	// over-cap hosts. (Cordoned hosts with an active drain are handled by
	// the drain's own waves; this covers cordons without a drain and
	// specs whose constraints changed under running replicas.)
	over := a.overCap(c.overScratch)
	for _, r := range a.replicas {
		if budget <= 0 {
			break
		}
		if r.state != repLive || !c.misplaced(a, r, over) {
			continue
		}
		if d, ok := c.drains[r.host]; ok && !d.done {
			continue // the drain's waves own this move
		}
		dst := c.place(a, view, r.host)
		if dst == "" {
			continue
		}
		if over[r.host] > 0 {
			over[r.host]--
		}
		c.launch(r, dst, nil, now)
		budget--
	}

	if a.spec.Protect {
		c.protectStep(t, a, view, now)
	}
	return budget
}

// hostAlive reports the round-snapshot liveness of host.
func (c *Controller) hostAlive(host string) bool {
	m, ok := c.byHost[host]
	return ok && m.Alive
}

// protectStep registers guardian protection for live replicas whose
// current (host, pid) is not yet protected — fresh spawns, moves, and
// adopted recoveries all need a new registration.
func (c *Controller) protectStep(t *sim.Task, a *app, view []ha.Member, now sim.Time) {
	for _, r := range a.replicas {
		if r.state != repLive || (r.protHost == r.host && r.protPID == r.pid) {
			continue
		}
		buddy := c.chooseBuddy(r, view)
		if buddy == "" {
			continue
		}
		if err := c.act.Protect(t, r.host, r.pid, buddy); err != nil {
			c.mProtectFail.Inc()
			continue
		}
		r.protHost, r.protPID, r.protBuddy, r.protAt = r.host, r.pid, buddy, now
		c.mProtect.Inc()
	}
}
