package controller

import (
	"sort"

	"procmig/internal/ha"
)

// Placement: choose a host for one replica. All inputs come from the
// round's view snapshot plus the controller's own bookkeeping; scoring is
// fully deterministic (ties break on host name) so the same seed places
// the same fleet the same way.

// cand is one placement candidate with its round-local scores.
type cand struct {
	host  string
	load  int // run-queue length from the heartbeat
	inApp int // replicas of the app being placed already here
	owned int // controller-owned replicas of any app here
}

// candidates fills c.candScratch with the hosts the spec may legally use
// right now: alive in the view, not cordoned (draining), admitted by the
// spec's allow/deny lists, and below the spec's per-host cap. exclude is
// an extra host to rule out (a migration source). Host counts come from
// the bindings, a moving replica counting at its destination.
func (c *Controller) candidates(a *app, view []ha.Member, exclude string) []cand {
	perApp, owned := c.countScratch, c.ownedScratch
	clear(perApp)
	clear(owned)
	for _, name := range c.appOrder {
		b := c.apps[name]
		for _, r := range b.replicas {
			owned[r.host]++
			if b == a {
				perApp[r.host]++
			}
		}
	}
	max := a.spec.maxPerHost()
	out := c.candScratch[:0]
	for i := range view {
		m := &view[i]
		if !m.Alive || c.cordoned[m.Host] || m.Host == exclude || !a.spec.allowed(m.Host) {
			continue
		}
		in := perApp[m.Host]
		if max > 0 && in >= max {
			continue
		}
		out = append(out, cand{
			host: m.Host, load: m.Load, inApp: in, owned: owned[m.Host],
		})
	}
	c.candScratch = out
	return out
}

// place picks the best candidate under the spec's policy, or "" when no
// host qualifies (placement pressure: every legal host is full or down).
func (c *Controller) place(a *app, view []ha.Member, exclude string) string {
	cands := c.candidates(a, view, exclude)
	if len(cands) == 0 {
		return ""
	}
	switch a.spec.Policy {
	case PolicyBinpack:
		// Densest first: most owned replicas, then least loaded (a packed
		// host that is also swamped is a bad bin), then name.
		sort.Slice(cands, func(i, j int) bool {
			a, b := &cands[i], &cands[j]
			if a.owned != b.owned {
				return a.owned > b.owned
			}
			if a.load != b.load {
				return a.load < b.load
			}
			return a.host < b.host
		})
	default: // PolicySpread
		// Emptiest first: fewest replicas of this app, then fewest owned
		// replicas overall, then least loaded, then name.
		sort.Slice(cands, func(i, j int) bool {
			a, b := &cands[i], &cands[j]
			if a.inApp != b.inApp {
				return a.inApp < b.inApp
			}
			if a.owned != b.owned {
				return a.owned < b.owned
			}
			if a.load != b.load {
				return a.load < b.load
			}
			return a.host < b.host
		})
	}
	return cands[0].host
}

// misplaced reports whether a live replica violates its spec's placement
// constraints where it currently sits: a denied/cordoned host, or an
// over-cap host (anti-affinity collision). over is precomputed per round:
// how many replicas above the cap each (app, host) pair carries.
func (c *Controller) misplaced(a *app, r *replica, over map[string]int) bool {
	if !a.spec.allowed(r.host) || c.cordoned[r.host] {
		return true
	}
	return over[r.host] > 0
}

// overCap counts, for app a, how many replicas each host carries beyond
// the per-host cap. The reconciler moves exactly that many; the ones
// within cap stay put (moving all of them would thrash).
func (a *app) overCap(dst map[string]int) map[string]int {
	for k := range dst {
		delete(dst, k)
	}
	max := a.spec.maxPerHost()
	if max <= 0 {
		return dst
	}
	for _, r := range a.replicas {
		dst[r.host]++
	}
	for h, n := range dst {
		if n > max {
			dst[h] = n - max
		} else {
			delete(dst, h)
		}
	}
	return dst
}

// chooseBuddy picks a guardian buddy for a replica: an alive,
// non-cordoned host other than the replica's own, carrying the fewest of
// the controller's existing protections (ties on name). Returns "" when
// the cluster has no second host to lean on.
func (c *Controller) chooseBuddy(r *replica, view []ha.Member) string {
	loads := c.countScratch
	for k := range loads {
		delete(loads, k)
	}
	for _, name := range c.appOrder {
		for _, rr := range c.apps[name].replicas {
			if rr.protBuddy != "" {
				loads[rr.protBuddy]++
			}
		}
	}
	best := ""
	bestN := 0
	for i := range view {
		m := &view[i]
		if !m.Alive || m.Host == r.host || c.cordoned[m.Host] {
			continue
		}
		n := loads[m.Host]
		if best == "" || n < bestN || (n == bestN && m.Host < best) {
			best, bestN = m.Host, n
		}
	}
	return best
}
