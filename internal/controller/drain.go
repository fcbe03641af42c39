package controller

import (
	"fmt"

	"procmig/internal/errno"
	"procmig/internal/ha"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// Rolling host drains. A drain is rate-limited — a wave of bounded size,
// a settle barrier, then the next wave — so maintenance never stampedes
// the network the way "migrate everything at once" would.

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

	// inflight counts the current wave's moves not yet completed; the
	// next wave launches only once it is zero (the settle barrier).
	inflight int
	wave     *obs.Span
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

// drainStep advances every active drain by at most one wave: once the
// previous wave's moves have all completed, pick up to DrainWave owned
// replicas still on the host and launch their moves. One wave per
// reconcile round is the rate limit; a 40-replica host under
// DrainWave=4 drains over at least 10 rounds.
func (c *Controller) drainStep(view []ha.Member, now sim.Time) {
	for _, host := range c.drainOrder {
		d := c.drains[host]
		if d.done {
			continue
		}
		// Count what is bound to the host (a replica moving in from
		// elsewhere counts: it will land here) and collect the evacuees
		// among the rest, oldest slots first for determinism.
		type evac struct {
			a *app
			r *replica
		}
		var wave []evac
		remain := 0
		for _, name := range c.appOrder {
			a := c.apps[name]
			for _, r := range a.replicas {
				if r.host != host {
					continue
				}
				remain++
				if r.state != repMoving && len(wave) < c.cfg.DrainWave {
					wave = append(wave, evac{a, r})
				}
			}
		}
		d.remain = remain
		if d.inflight > 0 {
			continue // settle barrier: the last wave is still moving
		}
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

		// A wave with nowhere to go is not a wave (counting it would
		// flood spans while placement pressure persists), just a stuck
		// marker retried next round. Each launch binds its replica to the
		// destination, so the next evacuee's placement counts it there —
		// two replicas of an anti-affinity app must not pick the same
		// refuge.
		for _, ev := range wave {
			dst := c.place(ev.a, view, host)
			if dst == "" {
				c.mDrainStuck.Inc()
				continue
			}
			if d.inflight == 0 {
				d.waves++
				c.mDrainWave.Inc()
				d.wave = c.tracer.Child(d.txn, fmt.Sprintf("wave %d", d.waves), host, 0, now)
			}
			c.launch(ev.r, dst, d, now)
		}
		if d.inflight > 0 && d.wave != nil {
			d.wave.Detail = fmt.Sprintf("launched=%d", d.inflight)
		}
	}
}
