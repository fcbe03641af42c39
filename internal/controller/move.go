package controller

import (
	"fmt"

	"procmig/internal/sim"
)

// The one move path. Constraint moves and drain evacuations both start
// here and end in finish; only the cause, and so the counters, differ.

// move is one migration in flight: the replica's binding before it
// started, and the drain evacuating it (nil for a constraint move).
type move struct {
	r        *replica
	src, dst string
	pid      int
	drain    *drain
}

// launch starts migrating r to dst. The replica is marked moving and
// bound to dst at once, so later placements count it there, and the
// transfer runs as its own engine task, so the round never parks on it.
func (c *Controller) launch(r *replica, dst string, d *drain, now sim.Time) {
	mv := move{r: r, src: r.host, dst: dst, pid: r.pid, drain: d}
	r.state = repMoving
	r.since = now
	r.host = dst
	if d != nil {
		d.inflight++
	}
	c.eng.Go(fmt.Sprintf("move:%s:%d", mv.src, mv.pid), func(t *sim.Task) {
		newPid, err := c.act.Migrate(t, mv.src, mv.pid, mv.dst)
		c.finish(mv, newPid, err, t.Now())
	})
}

// finish applies a move's outcome. A failure leaves the replica live
// where it was, for a later round to retry. A commit binds the slot to
// the copy on dst, pending until dst's census lists it; if the reply
// carrying the new pid was lost (pid 0), the slot keeps the old pid and
// is marked stale, and dst's census names the successor by its OldPID.
func (c *Controller) finish(mv move, newPid int, err error, now sim.Time) {
	r, d := mv.r, mv.drain
	if d != nil {
		if d.inflight--; d.inflight == 0 {
			d.wave.End(now)
		}
	}
	r.since = now
	if err != nil {
		r.host = mv.src
		r.state = repLive
		if d != nil {
			c.mDrainFail.Inc()
			c.drainFailCounter(err).Inc()
			d.failed++
		} else {
			c.mMoveFail.Inc()
		}
		return
	}
	if newPid != 0 {
		r.pid = newPid
	}
	r.stale = newPid == 0
	r.state = repPending
	r.downAt = 0
	r.protHost, r.protPID, r.protBuddy = "", 0, ""
	if d != nil {
		c.mDrainMove.Inc()
		d.moved++
	} else {
		c.mMove.Inc()
	}
}
