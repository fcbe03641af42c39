package controller

import (
	"fmt"

	"procmig/internal/ha"
	"procmig/internal/sim"
)

// Observed-state bookkeeping. The controller tracks each desired replica
// as a slot: bound slots name a (host, pid) the controller believes runs
// the replica, unbound slots are deficits the reconciler must fill. Every
// round the bookkeeping is re-judged against the heartbeat view's
// liveness and the census each replica's host answers that round — never
// against peer kernels. Pids are never reused, so an answer taken after a
// replica was bound that does not list it proves the replica gone.

type repState int

const (
	// repPending: spawned, adopted or just migrated; not yet listed in
	// an answer from its host. Becomes live when first listed, dead if
	// it stays unlisted past SpawnGrace.
	repPending repState = iota
	// repLive: listed in its alive host's latest answer.
	repLive
	// repMoving: a drain or constraint move is in flight and the slot is
	// bound to the destination; only the move's completion may touch it
	// (mid-transaction both copies are transient).
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
	host  string
	pid   int
	state repState
	since sim.Time // when it entered its current state
	// stale: a migration committed but the reply carrying the new pid was
	// lost; pid still names the pre-move process, and host (the
	// destination) will report the successor with that OldPID.
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
	replicas []*replica
	nextSlot int
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

// newer reports whether r entered its state after v, ties broken on
// (host, pid) so the order is total and replays.
func newer(r, v *replica) bool {
	if r.since != v.since {
		return r.since > v.since
	}
	if r.host != v.host {
		return r.host > v.host
	}
	return r.pid > v.pid
}

// rebind moves a replica's binding to a new (host, pid).
func rebind(r *replica, host string, pid int, st repState, now sim.Time) {
	r.host, r.pid = host, pid
	r.state = st
	r.since = now
	r.stale = false
	r.downAt = 0
}

// drop removes a replica's binding entirely (killed or presumed dead).
func drop(a *app, r *replica) {
	for i, rr := range a.replicas {
		if rr == r {
			a.replicas = append(a.replicas[:i], a.replicas[i+1:]...)
			break
		}
	}
}

// census is one host's answer to this round's query; ok if it answered,
// asked when the query went out.
type census struct {
	ok    bool
	asked sim.Time
	procs []ha.ProcStat
}

// askCensuses asks every alive host that holds a non-moving replica or an
// orphan for its census, once, in replica and then orphan order, so runs
// replay. A move can complete while the round waits for answers; the
// judge reads an answer only for bindings made before it was asked for.
func (c *Controller) askCensuses(t *sim.Task) {
	clear(c.censuses)
	ask := func(host string) {
		if _, asked := c.censuses[host]; !asked && c.hostAlive(host) {
			asked := t.Now()
			procs, err := c.act.Census(t, host, nil)
			c.censuses[host] = census{err == nil, asked, procs}
		}
	}
	for _, name := range c.appOrder {
		for _, r := range c.apps[name].replicas {
			if r.state != repMoving {
				ask(r.host)
			}
		}
	}
	for _, o := range c.orphans {
		ask(o.host)
	}
}

// listed reports whether pid is in procs.
func listed(procs []ha.ProcStat, pid int) bool {
	for i := range procs {
		if procs[i].PID == pid {
			return true
		}
	}
	return false
}

// chase finds a stale replica's successor (committed move, lost reply) in
// its destination's census: the process reporting OldPID == oldPID.
func chase(procs []ha.ProcStat, oldPID int) (int, bool) {
	for i := range procs {
		if procs[i].OldPID == oldPID {
			return procs[i].PID, true
		}
	}
	return 0, false
}

// judge re-evaluates every bound replica against this round's answers:
// a listing promotes pending to live, and absence unbinds the slot for
// respawn — at once for a live replica, past SpawnGrace for a pending
// one. A host that did not answer is no evidence either way.
func (c *Controller) judge(now sim.Time) {
	for _, name := range c.appOrder {
		a := c.apps[name]
		// Iterate over a snapshot: drop mutates a.replicas.
		reps := append(c.repScratch[:0], a.replicas...)
		c.repScratch = reps
		for _, r := range reps {
			if r.state == repMoving {
				continue // the move's completion updates the binding
			}
			if c.hostAlive(r.host) {
				r.downAt = 0
				cs := c.censuses[r.host]
				if !cs.ok || r.since > cs.asked {
					continue // no answer, or one older than the binding
				}
				if r.stale {
					if pid, found := chase(cs.procs, r.pid); found {
						rebind(r, r.host, pid, repLive, now)
						c.mAdopt.Inc()
						continue
					}
				} else if listed(cs.procs, r.pid) {
					if r.state != repLive {
						r.state = repLive
						r.since = now
					}
					continue
				}
				if r.state != repPending || sim.Duration(now-r.since) > c.cfg.SpawnGrace {
					c.lose(a, r)
				}
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
			c.lose(a, r)
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
}

// lose unbinds a replica judged dead, leaving its slot for the
// reconciler to respawn.
func (c *Controller) lose(a *app, r *replica) {
	drop(a, r)
	a.respawnDebt++
	c.mLost.Inc()
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
		rebind(r, r.protBuddy, rec.NewPID, repPending, now)
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
		if cs := c.censuses[o.host]; cs.ok {
			if !listed(cs.procs, o.pid) {
				continue // gone, and pids are never reused
			}
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
