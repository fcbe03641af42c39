package netsim

import (
	"procmig/internal/errno"
	"procmig/internal/sim"
)

// Fault injection: per-link and per-port message faults (loss, duplication,
// extra delay) plus scripted host crashes, all deterministic off the sim
// engine's PRNG seed. The healthy path consumes no randomness at all, so
// existing timings are unchanged until a fault is configured.

// FaultSpec describes the unreliability of a link or port. The zero value
// is a perfect wire.
type FaultSpec struct {
	Drop  float64      // probability a message is lost in transit
	Dup   float64      // probability a delivered message arrives twice
	Delay sim.Duration // extra one-way latency per message
}

func (f FaultSpec) zero() bool { return f.Drop == 0 && f.Dup == 0 && f.Delay == 0 }

// combine overlays a second spec: independent loss/duplication, additive
// delay.
func (f FaultSpec) combine(g FaultSpec) FaultSpec {
	return FaultSpec{
		Drop:  1 - (1-f.Drop)*(1-g.Drop),
		Dup:   1 - (1-f.Dup)*(1-g.Dup),
		Delay: f.Delay + g.Delay,
	}
}

type linkKey struct{ from, to string }

// FaultLink injects faults on every message sent from one named host to
// another (one direction only).
func (n *Network) FaultLink(from, to string, f FaultSpec) {
	if n.linkFaults == nil {
		n.linkFaults = map[linkKey]FaultSpec{}
	}
	n.linkFaults[linkKey{from, to}] = f
}

// FaultPort injects faults on every message addressed to the given service
// or stream port, on any link and in both directions of an exchange.
func (n *Network) FaultPort(port int, f FaultSpec) {
	if n.portFaults == nil {
		n.portFaults = map[int]FaultSpec{}
	}
	n.portFaults[port] = f
}

type linkPortKey struct {
	from, to string
	port     int
}

// FaultLinkPort injects faults on messages from one named host to another
// that are addressed to one specific port (one direction only). This is
// the scalpel for partition experiments: e.g. drop every heartbeat a host
// sends while leaving its data traffic untouched.
func (n *Network) FaultLinkPort(from, to string, port int, f FaultSpec) {
	if n.linkPortFaults == nil {
		n.linkPortFaults = map[linkPortKey]FaultSpec{}
	}
	n.linkPortFaults[linkPortKey{from, to, port}] = f
}

// ClearFaults removes all link and port fault specs. Partitions are a
// separate mechanism and are lifted by Heal, not by ClearFaults.
func (n *Network) ClearFaults() {
	n.linkFaults = nil
	n.portFaults = nil
	n.linkPortFaults = nil
}

// Partition cuts the network into groups: every message between hosts in
// different groups is lost in transit (the sender waits out the timeout,
// exactly as for a dropped message), deterministically and without
// consuming PRNG draws. Hosts not named in any group stay connected to
// everyone — the cut is between the named groups only. A new Partition
// replaces the previous one; Heal removes it. Partitions compose with
// FaultSpecs: intra-group traffic still suffers whatever drop/dup/delay
// is configured.
func (n *Network) Partition(groups ...[]string) {
	n.partition = map[string]int{}
	for gi, g := range groups {
		for _, host := range g {
			n.partition[host] = gi + 1
		}
	}
}

// Heal lifts the partition: every host can reach every host again (subject
// to the ordinary fault specs).
func (n *Network) Heal() { n.partition = nil }

// Partitioned reports whether a message from one named host to another
// would currently be cut by the partition.
func (n *Network) Partitioned(from, to string) bool {
	if n.partition == nil {
		return false
	}
	gf, gt := n.partition[from], n.partition[to]
	return gf != 0 && gt != 0 && gf != gt
}

// faultFor resolves the spec applying to one message. The fault-free fast
// path — every map nil, the overwhelmingly common case at scale — returns
// without hashing a single key.
func (n *Network) faultFor(from, to string, port int) FaultSpec {
	if n.linkFaults == nil && n.portFaults == nil && n.linkPortFaults == nil {
		return FaultSpec{}
	}
	f := n.linkFaults[linkKey{from, to}]
	if pf, ok := n.portFaults[port]; ok {
		f = f.combine(pf)
	}
	if lpf, ok := n.linkPortFaults[linkPortKey{from, to, port}]; ok {
		f = f.combine(lpf)
	}
	return f
}

// CrashAfter scripts the host to crash upon arrival of the nth subsequent
// message delivered to port (that message is lost; n < 1 means the very
// next one). Dropped messages never arrive and do not advance the count,
// so with no random faults configured the crash point is exact — tests use
// this to kill a destination at a chosen stream phase.
func (h *Host) CrashAfter(port, n int) {
	if n < 1 {
		n = 1
	}
	if h.crashAt == nil {
		h.crashAt = map[int]int{}
	}
	h.crashAt[port] = n
}

// SetCrashHook registers fn to run when the host crashes (via CrashAfter
// or Crash). The cluster layer uses it to kill the machine's processes.
func (h *Host) SetCrashHook(fn func()) { h.crashHook = fn }

// Crash is the extended SetDown(true): besides making the host
// unreachable it runs the crash hook, so the machine behind it loses its
// running processes too. If RestartAfter has armed a revival delay the
// host schedules its own comeback.
func (h *Host) Crash() {
	if h.down {
		return
	}
	h.down = true
	if h.crashHook != nil {
		h.crashHook()
	}
	if h.restartAfter > 0 {
		h.net.eng.GoAfter("revive@"+h.name, h.restartAfter, func(*sim.Task) { h.Revive() })
	}
}

// RestartAfter arms automatic revival: every subsequent Crash schedules a
// Revive d later, modelling a host that reboots on its own. Zero disarms.
func (h *Host) RestartAfter(d sim.Duration) { h.restartAfter = d }

// SetReviveHook registers fn to run when the host revives. The cluster
// layer uses it to rejoin the control plane with a bumped incarnation.
func (h *Host) SetReviveHook(fn func()) { h.reviveHook = fn }

// Revive brings a crashed (or merely partitioned-off via SetDown) host
// back as a fresh boot, as far as the network can tell: reachable again,
// pending scripted crashes forgotten, and the per-port delivery counters
// reset — a revived host must not inherit a CrashAfter armed against its
// previous life, nor report messages its previous life received. The
// revive hook runs last, after the host is reachable.
func (h *Host) Revive() {
	if !h.down {
		return
	}
	h.down = false
	h.crashAt = nil
	for p := range h.portMsgsIn {
		delete(h.portMsgsIn, p)
	}
	if h.reviveHook != nil {
		h.reviveHook()
	}
}

// crashArm decrements the scripted-crash counter for port, reporting true
// when this message is the one that takes the host down.
func (h *Host) crashArm(port int) bool {
	c, ok := h.crashAt[port]
	if !ok {
		return false
	}
	if c > 1 {
		h.crashAt[port] = c - 1
		return false
	}
	delete(h.crashAt, port)
	return true
}

// chargeTimeout makes the sender wait out the configured deadline — the
// cost of discovering that a message went unanswered.
func (n *Network) chargeTimeout(t *sim.Task) {
	if t != nil {
		t.Sleep(n.Timeout)
	}
}

// deliver is the fault-aware message primitive under Call and the stream
// operations: count and charge one message from -> to on behalf of client,
// apply any configured faults, and run scripted crashes. On error the
// receiver never saw the message, and the sender has waited out the
// network deadline (plus the wire time of whatever was transmitted). dup
// reports that the message arrived twice; the caller re-delivers the
// payload only to idempotent consumers (stream sinks).
func (n *Network) deliver(t *sim.Task, from, to *Host, client *Host, port int, nbytes int) (dup bool, err error) {
	f := n.faultFor(from.name, to.name, port)
	wire := n.Latency + sim.Duration(nbytes)*n.ByteTime + f.Delay
	n.count(from, to, client, port, nbytes)
	if to.down {
		n.countLinkFault(from, to, false)
		n.chargeTimeout(t)
		return false, errno.EHOSTDOWN
	}
	if n.Partitioned(from.name, to.name) {
		// Cut by a partition: the message went on the wire and vanished.
		// Deterministic (no PRNG draw) and invisible to scripted crashes —
		// a message that never arrives cannot advance a CrashAfter count.
		n.countLinkFault(from, to, false)
		if t != nil {
			t.Sleep(wire)
		}
		n.chargeTimeout(t)
		return false, errno.ETIMEDOUT
	}
	if f.Drop > 0 && n.eng.RandFloat() < f.Drop {
		n.countLinkFault(from, to, false)
		if t != nil {
			t.Sleep(wire)
		}
		n.chargeTimeout(t)
		return false, errno.ETIMEDOUT
	}
	if to.crashArm(port) {
		to.Crash()
		n.countLinkFault(from, to, false)
		n.chargeTimeout(t)
		return false, errno.EHOSTDOWN
	}
	if f.Dup > 0 && n.eng.RandFloat() < f.Dup {
		dup = true
		n.count(from, to, client, port, nbytes)
		wire += n.Latency + sim.Duration(nbytes)*n.ByteTime
		n.countLinkFault(from, to, true)
	}
	to.portMsgsIn[port]++
	if t != nil {
		t.Sleep(wire)
	}
	return dup, nil
}

// count records one transmitted message in the global, per-host and
// per-client-port counters (lost messages still went on the wire).
func (n *Network) count(from, to, client *Host, port int, nbytes int) {
	n.Messages++
	n.Bytes += int64(nbytes)
	from.stats.MsgsOut++
	from.stats.BytesOut += int64(nbytes)
	to.stats.MsgsIn++
	to.stats.BytesIn += int64(nbytes)
	client.clientBytes[port] += int64(nbytes)
}
