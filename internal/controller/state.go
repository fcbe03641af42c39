package controller

import (
	"fmt"

	"procmig/internal/ha"
	"procmig/internal/sim"
)

// Observed-state bookkeeping. The controller tracks each desired replica
// as a slot: bound slots name a (host, pid) the controller believes runs
// the replica, unbound slots are deficits the reconciler must fill. Every
// round the bookkeeping is re-judged against the heartbeat view — never
// against peer kernels — with grace periods absorbing the lag between an
// action and the beacons that prove it took effect.

type repState int

const (
	// repPending: spawned, adopted or just migrated; not yet seen in a
	// beacon from its host. Becomes live on first sighting, dead if it
	// stays unseen past SpawnGrace.
	repPending repState = iota
	// repLive: seen in a recent beacon from an alive host.
	repLive
	// repMoving: a drain or constraint move is in flight; the view
	// judgement skips it (mid-transaction both copies are transient).
	repMoving
)

func (s repState) String() string {
	switch s {
	case repPending:
		return "pending"
	case repLive:
		return "live"
	case repMoving:
		return "moving"
	}
	return fmt.Sprintf("repState(%d)", int(s))
}

// replica is one bound slot of an app.
type replica struct {
	slot  int
	gen   int // spec generation it was spawned under (Replace bumps the app's)
	host  string
	pid   int
	state repState
	since sim.Time // when it entered its current state
	seen  sim.Time // last beacon sighting
	// stale: a migration committed but the reply carrying the new pid was
	// lost; pid still names the pre-move process and the view's OldPID
	// chain will reveal the successor.
	stale bool
	// downAt: when the replica's host was first observed not alive
	// (0 while the host is fine). Respawn decisions date from here.
	downAt sim.Time

	// Guardian protection actually registered for this copy. Compared
	// against (host, pid) to decide when to (re-)protect.
	protHost  string
	protPID   int
	protBuddy string
	protAt    sim.Time
}

// app is one submitted spec plus its slots. Slots are orderless: the
// replicas slice holds the bound ones; deficit = spec.Replicas - len.
type app struct {
	spec     AppSpec
	gen      int // bumped by Replace; replicas with older gen are stale
	replicas []*replica
	nextSlot int
	removed  bool // Remove was called; forgotten once the replicas are gone
	// respawnDebt counts slots judged dead and not yet refilled, so the
	// reconciler can tell a heal (respawns counter) from a scale-up
	// (spawns counter).
	respawnDebt int
}

// orphan is a copy the controller walked away from (a respawned-over
// replica on a host that was presumed dead, or a guardian recovery that
// arrived after the controller gave up waiting). If it ever shows up
// alive again — a false suspicion healed, a late restart — it would be a
// duplicate, so the reconciler kills it on sight.
type orphan struct {
	host string
	pid  int
	at   sim.Time
}

// watchedProt is an abandoned protection: the controller respawned the
// replica elsewhere before the guardian recovered it. Any recovery the
// buddy performs for it after protAt is an orphan to kill.
type watchedProt struct {
	source string
	pid    int
	buddy  string
	after  sim.Time
	at     sim.Time
}

func hp(host string, pid int) string { return fmt.Sprintf("%s/%d", host, pid) }

// own/disown maintain the ownership index the Balancer's Skip hook and
// placement host-counts read.
func (c *Controller) own(host string, pid int) {
	k := hp(host, pid)
	if !c.owned[k] {
		c.owned[k] = true
		c.ownedPerHost[host]++
	}
}

func (c *Controller) disown(host string, pid int) {
	k := hp(host, pid)
	if c.owned[k] {
		delete(c.owned, k)
		c.ownedPerHost[host]--
	}
}

// Owns reports whether the controller currently claims (host, pid).
// Wired into the Balancer as its Skip hook so the load balancer defers
// to controller-owned replicas instead of fighting the reconciler.
func (c *Controller) Owns(host string, pid int) bool { return c.owned[hp(host, pid)] }

// rebind moves a replica's binding and ownership to a new (host, pid).
func (c *Controller) rebind(r *replica, host string, pid int, st repState, now sim.Time) {
	c.disown(r.host, r.pid)
	r.host, r.pid = host, pid
	r.state = st
	r.since, r.seen = now, now
	r.stale = false
	r.downAt = 0
	c.own(host, pid)
}

// drop removes a replica's binding entirely (killed or presumed dead).
func (c *Controller) drop(a *app, r *replica) {
	c.disown(r.host, r.pid)
	for i, rr := range a.replicas {
		if rr == r {
			a.replicas = append(a.replicas[:i], a.replicas[i+1:]...)
			break
		}
	}
}

// findInView reports whether pid is in m's advertised census.
func findInView(m *ha.Member, pid int) bool {
	for i := range m.Procs {
		if m.Procs[i].PID == pid {
			return true
		}
	}
	return false
}

// chase scans the whole view for a successor of (r.host, r.pid) — a
// process advertising OldPID == r.pid. This is how a stale replica
// (committed move, lost reply) is relocated from beacons alone.
func (c *Controller) chase(view []ha.Member, r *replica) (string, int, bool) {
	for i := range view {
		m := &view[i]
		if !m.Alive {
			continue
		}
		for j := range m.Procs {
			if m.Procs[j].OldPID == r.pid {
				return m.Host, m.Procs[j].PID, true
			}
		}
	}
	return "", 0, false
}

// judge re-evaluates every bound replica against the view: sightings
// promote pending to live, sustained absence (past the applicable grace)
// unbinds the slot so the reconciler respawns it. Returns how many slots
// were unbound this round (the healed-deviation count).
func (c *Controller) judge(view []ha.Member, now sim.Time) int {
	lost := 0
	for _, name := range c.appOrder {
		a := c.apps[name]
		// Iterate over a snapshot: drop mutates a.replicas.
		reps := append(c.repScratch[:0], a.replicas...)
		c.repScratch = reps
		for _, r := range reps {
			if r.state == repMoving {
				continue // the move's own task updates the binding
			}
			m, ok := c.byHost[r.host]
			if ok && m.Alive {
				r.downAt = 0
				if findInView(m, r.pid) {
					if r.state != repLive {
						r.state = repLive
						r.since = now
					}
					// Evidence is as old as the census it came from, not
					// the round that read it.
					if m.CensusAt > r.seen {
						r.seen = m.CensusAt
					}
					r.stale = false
					continue
				}
				if r.stale {
					if host, pid, found := c.chase(view, r); found {
						c.rebind(r, host, pid, repLive, now)
						c.mAdopt.Inc()
						continue
					}
				}
				// Not in the census. Beacons lag actions, so give a fresh
				// spawn SpawnGrace and a previously seen copy MissGrace
				// before declaring it lost.
				grace := c.cfg.MissGrace
				ref := r.seen
				if r.state == repPending {
					grace = c.cfg.SpawnGrace
					ref = r.since
				}
				// At scale a host's liveness needs no fresh beacon but its
				// proc census arrives only on a direct one, so the census
				// lags by many intervals. A census taken before the replica
				// was last known alive proves nothing about it — only
				// absence from a census newer than the evidence convicts.
				// CensusAt is stamped at receipt while the proc list was
				// sampled a delivery delay earlier, so a census received
				// moments after a spawn may still predate it: demand one
				// full period of clearance, which over-covers any delivery
				// delay without adding detection latency (the next census
				// is at least a beacon interval away regardless).
				if m.CensusAt <= ref+sim.Time(c.cfg.Period) {
					continue
				}
				if sim.Duration(now-ref) <= grace {
					continue
				}
				// The census says dead and pids are never reused, so this
				// should be definitive — but record the drop as an orphan
				// anyway: if the conviction was somehow wrong, the reaper
				// turns a permanent duplicate into a transient one.
				c.orphans = append(c.orphans, orphan{host: r.host, pid: r.pid, at: now})
				c.drop(a, r)
				a.respawnDebt++
				c.mLost.Inc()
				lost++
				continue
			}
			// Host not alive (suspected, crashed, or never heard from).
			if r.downAt == 0 {
				r.downAt = now
				continue
			}
			if r.protBuddy != "" {
				// A protected replica's guardian will restart it (after
				// arbitration) — prefer adopting that copy over respawning
				// a fresh one that loses all progress since the last
				// checkpoint... but don't wait forever: the buddy may be
				// dead too.
				if c.adoptRecovery(a, r, now) {
					continue
				}
				if sim.Duration(now-r.downAt) <= c.cfg.RecoveryGrace {
					continue
				}
				// Gave up on the guardian. Watch the abandoned protection:
				// a late recovery would be a duplicate.
				c.watched = append(c.watched, watchedProt{
					source: r.protHost, pid: r.protPID, buddy: r.protBuddy,
					after: r.protAt, at: now,
				})
			} else if sim.Duration(now-r.downAt) <= c.cfg.DeadGrace {
				continue
			}
			// Presumed dead. If the host was merely partitioned the copy
			// is still running there — remember it as an orphan so a
			// healed partition doesn't leave a duplicate.
			c.orphans = append(c.orphans, orphan{host: r.host, pid: r.pid, at: now})
			c.drop(a, r)
			a.respawnDebt++
			c.mLost.Inc()
			lost++
		}
		// Debt never exceeds the actual deficit: a shrink or an adoption
		// that raced a drop must not mislabel a later scale-up as a heal.
		if d := a.spec.Replicas - len(a.replicas); a.respawnDebt > d {
			a.respawnDebt = d
			if a.respawnDebt < 0 {
				a.respawnDebt = 0
			}
		}
	}
	return lost
}

// adoptRecovery checks the replica's buddy ledger for a completed
// guardian restart of this protection and rebinds the slot to the
// restored copy.
func (c *Controller) adoptRecovery(a *app, r *replica, now sim.Time) bool {
	for _, rec := range c.act.Recoveries(r.protBuddy) {
		if rec.Source != r.protHost || rec.PID != r.protPID || rec.At < r.protAt {
			continue
		}
		if rec.Status != 0 || rec.NewPID == 0 {
			continue // failed restart; the guardian retries, keep waiting
		}
		c.rebind(r, r.protBuddy, rec.NewPID, repPending, now)
		// The restored copy is a different process; protection must be
		// re-registered once it is seen live.
		r.protHost, r.protPID, r.protBuddy = "", 0, ""
		c.mAdopt.Inc()
		return true
	}
	return false
}

// reap kills orphans that resurfaced and late guardian recoveries of
// abandoned protections — the overshoot healer that keeps "at most the
// desired number of copies" true even across false suspicions and
// controller/guardian races.
func (c *Controller) reap(t *sim.Task, now sim.Time) {
	keepO := c.orphans[:0]
	for _, o := range c.orphans {
		if m, ok := c.byHost[o.host]; ok && m.Alive && findInView(m, o.pid) {
			if err := c.act.Kill(t, o.host, o.pid); err == nil {
				c.mReap.Inc()
				continue // killed; forget it
			}
		} else if sim.Duration(now-o.at) > c.orphanTTL() {
			continue // host stayed dead long enough; the copy died with it
		}
		keepO = append(keepO, o)
	}
	c.orphans = keepO

	keepW := c.watched[:0]
	for _, w := range c.watched {
		done := false
		for _, rec := range c.act.Recoveries(w.buddy) {
			if rec.Source != w.source || rec.PID != w.pid || rec.At < w.after {
				continue
			}
			if rec.Status == 0 && rec.NewPID != 0 {
				if err := c.act.Kill(t, w.buddy, rec.NewPID); err == nil {
					c.mReap.Inc()
				}
			}
			done = true
			break
		}
		if !done && sim.Duration(now-w.at) <= c.orphanTTL() {
			keepW = append(keepW, w)
		}
	}
	c.watched = keepW
}

func (c *Controller) orphanTTL() sim.Duration { return 30 * c.cfg.Period }
