package controller

import (
	"fmt"
	"sort"

	"procmig/internal/errno"
	"procmig/internal/ha"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// Rolling operations: host drains and replace waves. Both are
// rate-limited — a wave of bounded size, a settle barrier, then the next
// wave — so maintenance never stampedes the network the way "migrate
// everything at once" would.

// drain tracks one rolling host drain.
type drain struct {
	host     string
	txn      uint32 // span trace id
	started  sim.Time
	waves    int
	moved    int
	failed   int
	done     bool
	finished sim.Time
	remain   int // owned replicas still on the host, as of the last round
}

func (d *drain) status() DrainStatus {
	st := DrainStatus{
		Host: d.host, StartedAt: d.started, Waves: d.waves,
		Moved: d.moved, Failed: d.failed, Remaining: d.remain, Done: d.done,
	}
	if d.done {
		st.Makespan = sim.Duration(d.finished - d.started)
	}
	return st
}

// drainFailCounter resolves (and caches) the per-reason failure counter.
// Engine tasks run one at a time, so the map needs no lock.
func (c *Controller) drainFailCounter(err error) *obs.Counter {
	reason := errno.FailLabel(err)
	ctr := c.mDrainFailBy[reason]
	if ctr == nil {
		ctr = c.scope.Counter("controller.drain_failed." + reason)
		c.mDrainFailBy[reason] = ctr
	}
	return ctr
}

// drainTxn synthesizes a stable trace id for one drain, disjoint from
// migration txn ids by construction (they hash time and pid; this hashes
// the host name and round).
func drainTxn(host string, round int64) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h = (h ^ uint32(host[i])) * 16777619
	}
	h ^= uint32(round) * 2654435761
	if h == 0 {
		h = 1
	}
	return h
}

// Drain cordons host and starts migrating every controller-owned replica
// off it, DrainWave at a time. The cordon persists after the drain
// completes (the host is "in maintenance") until Uncordon.
func (c *Controller) Drain(host string) error {
	found := false
	for _, h := range c.act.Hosts() {
		if h == host {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("controller: drain of unknown host %q", host)
	}
	if d, ok := c.drains[host]; ok && !d.done {
		return fmt.Errorf("controller: %s is already draining", host)
	}
	var now sim.Time
	if c.eng != nil {
		now = c.eng.Now()
	}
	d := &drain{host: host, started: now, txn: drainTxn(host, c.round)}
	if _, ok := c.drains[host]; !ok {
		c.drainOrder = append(c.drainOrder, host)
	}
	c.drains[host] = d
	c.cordoned[host] = true
	c.convergeAt = 0
	if sp := c.tracer.Root(d.txn, "drain", host, 0, now); sp != nil {
		sp.Detail = "rolling drain"
	}
	return nil
}

// Uncordon lifts a host's cordon so placement may use it again. Any
// finished drain record for it is kept (Status history) but a live drain
// keeps going — uncordoning mid-drain only re-admits the host for new
// placements, it does not cancel the evacuation.
func (c *Controller) Uncordon(host string) { delete(c.cordoned, host) }

// Cordoned reports whether host is currently excluded from placement.
func (c *Controller) Cordoned(host string) bool { return c.cordoned[host] }

// DrainStatus reports one drain's progress (false if never started).
func (c *Controller) DrainStatus(host string) (DrainStatus, bool) {
	d, ok := c.drains[host]
	if !ok {
		return DrainStatus{}, false
	}
	return d.status(), ok
}

// drainStep runs one wave per active drain: pick up to DrainWave owned
// replicas still on the host, migrate them concurrently (each in its own
// engine task), and block until the wave settles before returning — the
// per-wave settle barrier. One wave per reconcile round is the rate
// limit; a 40-replica host under DrainWave=4 drains over 10 rounds.
func (c *Controller) drainStep(t *sim.Task, view []ha.Member, now sim.Time) {
	for _, host := range c.drainOrder {
		d := c.drains[host]
		if d.done {
			continue
		}
		// Collect the evacuees: bound replicas on the host, oldest slots
		// first for determinism.
		type evac struct {
			a *app
			r *replica
		}
		var wave []evac
		remain := 0
		for _, name := range c.appOrder {
			a := c.apps[name]
			for _, r := range a.replicas {
				if r.host != host || r.state == repMoving {
					continue
				}
				remain++
				if len(wave) < c.cfg.DrainWave {
					wave = append(wave, evac{a, r})
				}
			}
		}
		d.remain = remain
		if remain == 0 {
			d.done = true
			d.finished = now
			if sp := c.tracer.Root(d.txn, "drain", host, 0, now); sp != nil {
				sp.EndDetail(now, fmt.Sprintf("moved=%d failed=%d waves=%d", d.moved, d.failed, d.waves))
			}
			continue
		}
		// A dead host needs no evacuation — judge() replaces its replicas
		// through the normal dead-host path; stalling migrations against
		// it would just burn network timeouts. The drain resumes if the
		// host comes back before emptying.
		if !c.hostAlive(host) {
			continue
		}

		// Resolve destinations first: a wave with nowhere to go is not a
		// wave (counting it would flood spans while placement pressure
		// persists), just a stuck marker retried next round. The binding
		// is tentatively moved to the destination at selection time so
		// the next evacuee's placement counts it there — two replicas of
		// an anti-affinity app must not pick the same refuge.
		type move struct {
			r        *replica
			src, dst string
			pid      int
		}
		var moves []move
		for _, ev := range wave {
			dst := c.place(ev.a, view, host)
			if dst == "" {
				c.mDrainStuck.Inc()
				continue
			}
			ev.r.state = repMoving
			ev.r.since = now
			moves = append(moves, move{r: ev.r, src: ev.r.host, dst: dst, pid: ev.r.pid})
			ev.r.host = dst
		}
		if len(moves) == 0 {
			continue
		}
		d.waves++
		c.mDrainWave.Inc()
		waveSpan := c.tracer.Child(d.txn, fmt.Sprintf("wave %d", d.waves), host, 0, now)
		pending := 0
		for i := range moves {
			mv := moves[i]
			pending++
			c.eng.Go(fmt.Sprintf("drain:%s:%d", mv.src, mv.pid), func(wt *sim.Task) {
				defer func() { pending-- }()
				newPid, err := c.act.Migrate(wt, mv.src, mv.pid, mv.dst)
				r := mv.r
				if err != nil {
					c.mDrainFail.Inc()
					c.drainFailCounter(err).Inc()
					d.failed++
					r.host = mv.src // still on the host; next wave retries
					r.state = repLive
					return
				}
				c.disown(mv.src, mv.pid)
				if newPid == 0 {
					// Committed but the reply carrying the new pid was
					// lost; dst's census will reveal the successor.
					r.stale = true
					c.own(mv.dst, mv.pid)
				} else {
					r.pid = newPid
					r.stale = false
					c.own(mv.dst, newPid)
				}
				r.state = repPending
				r.since = wt.Now()
				r.downAt = 0
				r.protHost, r.protPID, r.protBuddy = "", 0, ""
				c.mDrainMove.Inc()
				d.moved++
			})
		}
		// Settle barrier: the round does not proceed (and the next wave
		// cannot start) until every migration in this wave has finished.
		for pending > 0 {
			t.Sleep(c.cfg.Period / 4)
		}
		waveSpan.EndDetail(t.Now(), fmt.Sprintf("launched=%d", len(moves)))
	}
}

// replaceStep advances one rolling replace for app a: when a Replace has
// bumped the generation, restart up to ReplaceWave stale replicas.
// The settle barrier between waves is implicit: a wave only starts while
// the app has no pending replicas, so the previous wave's restarts must
// have been listed in their hosts' censuses first.
func (c *Controller) replaceStep(t *sim.Task, a *app, view []ha.Member, now sim.Time, budget int) int {
	var stale []*replica
	for _, r := range a.replicas {
		if r.gen != a.gen {
			stale = append(stale, r)
		}
		if r.state == repPending {
			return budget // settle barrier: wait for the last wave to land
		}
	}
	if len(stale) == 0 {
		return budget
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].slot < stale[j].slot })
	if len(stale) > c.cfg.ReplaceWave {
		stale = stale[:c.cfg.ReplaceWave]
	}
	c.mReplaceWave.Inc()
	txn := drainTxn(a.spec.Name+"#replace", int64(a.gen))
	root := c.tracer.Root(txn, "replace", c.Host, 0, now)
	for _, r := range stale {
		if budget <= 0 {
			break
		}
		if r.state == repLive && c.hostAlive(r.host) {
			if err := c.act.Kill(t, r.host, r.pid); err != nil {
				continue
			}
		}
		sp := c.tracer.Child(txn, "restart", r.host, r.pid, now)
		c.drop(a, r)
		host := c.place(a, view, "")
		if host == "" {
			sp.EndDetail(t.Now(), "no placement")
			budget--
			continue // slot becomes a deficit; spawned when capacity returns
		}
		pid, err := c.act.Spawn(t, host, a.spec.Path)
		if err != nil {
			c.mSpawnFail.Inc()
			sp.EndDetail(t.Now(), "spawn failed")
			budget--
			continue
		}
		nr := &replica{
			slot: a.nextSlot, gen: a.gen, host: host, pid: pid,
			state: repPending, since: t.Now(),
		}
		a.nextSlot++
		a.replicas = append(a.replicas, nr)
		c.own(host, pid)
		c.mReplaced.Inc()
		sp.EndDetail(t.Now(), fmt.Sprintf("%s/%d -> %s/%d", r.host, r.pid, host, pid))
		budget--
	}
	staleLeft := 0
	for _, r := range a.replicas {
		if r.gen != a.gen {
			staleLeft++
		}
	}
	if staleLeft == 0 {
		root.EndDetail(t.Now(), fmt.Sprintf("gen %d complete", a.gen))
	}
	return budget
}
