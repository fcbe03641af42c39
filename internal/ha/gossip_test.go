package ha_test

import (
	"fmt"
	"testing"

	"procmig/internal/ha"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// gossipSource is a synthetic StatSource: a host with a fixed run-queue
// length and no migratable processes. Gossip tests need liveness, not
// kernels.
type gossipSource struct {
	name string
	load int
}

func (s *gossipSource) HostName() string { return s.name }
func (s *gossipSource) RunQueueLen() int { return s.load }
func (s *gossipSource) AppendProcStats(now sim.Time, dst []ha.ProcStat) []ha.ProcStat {
	return dst
}

type gossipCluster struct {
	eng   *sim.Engine
	net   *netsim.Network
	reg   *obs.Registry
	hosts []*netsim.Host
	nodes []*ha.Node
	names []string
}

// bootGossip wires n synthetic hosts into one network, all running hbd
// with default (auto) fanout and counters in one registry, and seeds the
// engine PRNG.
func bootGossip(t testing.TB, n int, seed uint64) *gossipCluster {
	t.Helper()
	eng := sim.NewEngine()
	eng.Seed(seed)
	net := netsim.New(eng, 100*sim.Microsecond, 0) // latency-only: beacons are small
	gc := &gossipCluster{eng: eng, net: net, reg: obs.NewRegistry()}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%03d", i)
		gc.names = append(gc.names, name)
		gc.hosts = append(gc.hosts, net.AddHost(name))
	}
	for i := 0; i < n; i++ {
		node, err := ha.StartSource(eng, gc.hosts[i], &gossipSource{name: gc.names[i], load: i % 7}, gc.reg.Scope(gc.names[i]), ha.Config{})
		if err != nil {
			t.Fatalf("StartSource %s: %v", gc.names[i], err)
		}
		peers := make([]string, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, gc.names[j])
			}
		}
		node.SetPeers(peers)
		gc.nodes = append(gc.nodes, node)
	}
	return gc
}

func (gc *gossipCluster) stop() {
	for _, n := range gc.nodes {
		n.Stop()
	}
}

// total sums one hbd counter over every host.
func (gc *gossipCluster) total(counter string) int64 {
	var sum int64
	for _, name := range gc.names {
		sum += gc.reg.Scope(name).Counter(counter).Value()
	}
	return sum
}

// runIntervals advances the cluster by k beacon intervals.
func (gc *gossipCluster) runIntervals(t testing.TB, k int) {
	t.Helper()
	limit := gc.eng.Now() + sim.Time(sim.Duration(k)*sim.Second)
	if err := gc.eng.RunUntil(limit); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// converged reports how many nodes see the full, fully-alive member set.
func (gc *gossipCluster) converged(now sim.Time) int {
	ok := 0
	for _, node := range gc.nodes {
		ms := node.Members()
		if ms.Len() != len(gc.names) {
			continue
		}
		all := true
		for _, name := range gc.names {
			if !ms.Alive(name, now) {
				all = false
				break
			}
		}
		if all {
			ok++
		}
	}
	return ok
}

// TestGossipConvergence: at every scale, every host learns of every other
// host — alive — within a bounded number of beacon intervals, even though
// each host beacons to only ~log₂N peers per interval.
func TestGossipConvergence(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if n == 1000 && testing.Short() {
				t.Skip("short mode")
			}
			gc := bootGossip(t, n, 42)
			defer gc.stop()
			// Bound: direct beacons need 1 interval, gossip spread needs
			// ~log_k(N) more; 8 intervals is generous at every scale.
			const bound = 12
			gc.runIntervals(t, bound)
			now := gc.eng.Now()
			if got := gc.converged(now); got != n {
				t.Fatalf("after %d intervals only %d/%d nodes converged", bound, got, n)
			}
			if n > 50 {
				k := gc.nodes[0].Fanout()
				if k >= n-1 {
					t.Fatalf("fanout %d not sub-quadratic for n=%d", k, n)
				}
			}
		})
	}
}

// TestGossipQuietClusterSendsNothing: only a state change is news, and
// sync stops once a roster is complete, so a converged 60-host cluster in
// which nothing fails piggybacks no summary and sends no sync for 30
// intervals — every beacon is a bare header.
func TestGossipQuietClusterSendsNothing(t *testing.T) {
	const n = 60
	gc := bootGossip(t, n, 9)
	defer gc.stop()
	gc.runIntervals(t, 12)
	if got := gc.converged(gc.eng.Now()); got != n {
		t.Fatalf("only %d/%d converged", got, n)
	}
	summaries, syncs, beacons := gc.total("hb.summaries_in"), gc.total("hb.syncs_out"), gc.total("hb.beacons_in")
	gc.runIntervals(t, 30)
	if d := gc.total("hb.beacons_in") - beacons; d < 30*n {
		t.Fatalf("%d beacons in 30 intervals: the cluster was not beaconing", d)
	}
	if d := gc.total("hb.summaries_in") - summaries; d != 0 {
		t.Fatalf("quiet cluster piggybacked %d summaries in 30 intervals, want 0", d)
	}
	if d := gc.total("hb.syncs_out") - syncs; d != 0 {
		t.Fatalf("converged cluster sent %d syncs in 30 intervals, want 0", d)
	}
	t.Logf("bootstrap: %d summaries, %d syncs", summaries, syncs)
}

// TestGossipSuspectedExactlyOnce: a partitioned host transitions
// alive→suspect exactly once at an observer — stale summaries circulating
// through the cluster must never resurrect it (no flapping) — and the
// transition comes from probes, within a few intervals of the partition.
// At n=4 the fanout covers every peer, so the observer probes the victim
// itself every interval.
func TestGossipSuspectedExactlyOnce(t *testing.T) {
	for _, n := range []int{4, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gc := bootGossip(t, n, 7)
			defer gc.stop()
			gc.runIntervals(t, 12) // converge first
			now := gc.eng.Now()
			if got := gc.converged(now); got != n {
				t.Fatalf("pre-partition: only %d/%d converged", got, n)
			}

			victim := gc.names[n/2]
			gc.hosts[n/2].SetDown(true)
			downAt := gc.eng.Now()

			// Sample the observer's verdict 4× per interval for 40 intervals.
			observer := gc.nodes[0].Members()
			transitions := 0
			var suspectedAt sim.Time
			prev := true
			done := make(chan struct{})
			gc.eng.Go("monitor", func(task *sim.Task) {
				defer close(done)
				for i := 0; i < 40*4; i++ {
					task.Sleep(sim.Second / 4)
					alive := observer.Alive(victim, task.Now())
					if alive != prev {
						transitions++
						prev = alive
						if !alive {
							suspectedAt = task.Now()
						}
					}
				}
			})
			gc.runIntervals(t, 41)
			<-done
			if transitions != 1 {
				t.Fatalf("victim flapped: %d alive-state transitions, want exactly 1", transitions)
			}
			if observer.Alive(victim, gc.eng.Now()) {
				t.Fatalf("victim still alive at observer after 40 intervals of silence")
			}
			// Some peer probes the victim within an interval or two (k of N
			// beacons per interval are aimed at it), the failed call costs one
			// network timeout, and urgent news reaches everyone in ~log_k N
			// intervals. There is no timeout to wait for.
			if lag := sim.Duration(suspectedAt - downAt); lag > 6*sim.Second {
				t.Fatalf("suspicion took %v after the partition, want ≤ 6 intervals", lag)
			}
		})
	}
}

// TestGossipSilenceAloneNeverSuspects: only a failed probe or suspicion
// news ends a member's liveness, never silence, at every cluster size (at
// n=4 the fanout covers every peer). Every beacon from one live member to
// one observer is dropped, and the observer never beacons to the member.
// Its own beacons would probe through the same faulted link (the member's
// acks travel member→observer on HBPort) and fail, which is a real probe
// failure. The member's state never changes, so no news about it reaches
// the observer either. It must stay Alive there for the whole window,
// though the observer last heard of it more than nine intervals ago.
func TestGossipSilenceAloneNeverSuspects(t *testing.T) {
	for _, n := range []int{4, 20} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gc := bootGossip(t, n, 5)
			defer gc.stop()
			// Settle well past bootstrap.
			gc.runIntervals(t, 40)
			if got := gc.converged(gc.eng.Now()); got != n {
				t.Fatalf("pre-fault: only %d/%d converged", got, n)
			}
			mi, oi := n/2, 0
			member := gc.names[mi]
			gc.net.FaultLinkPort(member, gc.names[oi], ha.HBPort, netsim.FaultSpec{Drop: 1})
			var peers []string
			for j, name := range gc.names {
				if j != mi && j != oi {
					peers = append(peers, name)
				}
			}
			gc.nodes[oi].SetPeers(peers)

			observer := gc.nodes[oi].Members()
			suspectedSamples := 0
			done := make(chan struct{})
			gc.eng.Go("monitor", func(task *sim.Task) {
				defer close(done)
				for i := 0; i < 30*4; i++ {
					task.Sleep(sim.Second / 4)
					if !observer.Alive(member, task.Now()) {
						suspectedSamples++
					}
				}
			})
			gc.runIntervals(t, 31)
			<-done
			if suspectedSamples > 0 {
				t.Fatalf("live member not Alive at the observer in %d of %d samples", suspectedSamples, 30*4)
			}
			now := gc.eng.Now()
			heard, _ := observer.LastHeard(member)
			if silent := sim.Duration(now - heard); silent <= 9*sim.Second {
				t.Fatalf("observer heard of the member %v ago: liveness still flows without news, so the window never tested silence", silent)
			}
			for i, node := range gc.nodes {
				if i != oi && !node.Members().Alive(member, now) {
					t.Fatalf("%s lost the member though its beacons to it were never dropped", gc.names[i])
				}
			}
		})
	}
}

// TestGossipRevivalReadmittedOnce: a crashed host that comes back with a
// bumped incarnation is re-admitted exactly once — observers see one
// suspect→alive transition and no flapping, even while stale suspicion of
// the old incarnation is still circulating — and the new life's state
// (restarted sequence numbers, fresh load) wins over the old life's higher
// sequence numbers.
func TestGossipRevivalReadmittedOnce(t *testing.T) {
	for _, n := range []int{10, 100} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			gc := bootGossip(t, n, 11)
			defer gc.stop()
			gc.runIntervals(t, 12)
			if got := gc.converged(gc.eng.Now()); got != n {
				t.Fatalf("pre-crash: only %d/%d converged", got, n)
			}
			vi := n / 2
			victim := gc.names[vi]
			gc.hosts[vi].Crash()
			gc.runIntervals(t, 25) // well past the stretched suspicion bound
			observer := gc.nodes[0].Members()
			if observer.Alive(victim, gc.eng.Now()) {
				t.Fatalf("victim still alive at observer before revival")
			}

			// Reboot: the old control plane dies with the host; the fresh
			// boot binds the same ports with a bumped incarnation. Its load
			// (6) differs from the old life's (vi%7), so adopting the new
			// state is observable even though its seq restarted at 1.
			oldInc := gc.nodes[vi].Incarnation()
			gc.nodes[vi].Shutdown()
			gc.hosts[vi].Revive()
			node, err := ha.StartSource(gc.eng, gc.hosts[vi], &gossipSource{name: victim, load: 6},
				nil, ha.Config{Incarnation: oldInc + 1})
			if err != nil {
				t.Fatalf("revive StartSource: %v", err)
			}
			peers := make([]string, 0, n-1)
			for j := 0; j < n; j++ {
				if j != vi {
					peers = append(peers, gc.names[j])
				}
			}
			node.SetPeers(peers)
			gc.nodes[vi] = node

			// From revival on, the observer must see exactly one
			// suspect→alive transition: stale suspect summaries of the old
			// incarnation must not re-kill the new one.
			transitions := 0
			prev := false
			done := make(chan struct{})
			gc.eng.Go("monitor", func(task *sim.Task) {
				defer close(done)
				for i := 0; i < 40*4; i++ {
					task.Sleep(sim.Second / 4)
					alive := observer.Alive(victim, task.Now())
					if alive != prev {
						transitions++
						prev = alive
					}
				}
			})
			gc.runIntervals(t, 41)
			<-done
			if transitions != 1 {
				t.Fatalf("revived victim re-admitted %d times, want exactly once", transitions)
			}
			now := gc.eng.Now()
			if got := gc.converged(now); got != n {
				t.Fatalf("post-revival: only %d/%d converged (revived roster incomplete?)", got, n)
			}
			m, ok := observer.Get(victim, now)
			if !ok || m.Inc != oldInc+1 {
				t.Fatalf("observer did not adopt the new incarnation: inc=%d ok=%v, want %d", m.Inc, ok, oldInc+1)
			}
			if m.Load != 6 {
				t.Fatalf("observer kept the old life's state (load=%d, want 6): restarted seq lost to the old one", m.Load)
			}
		})
	}
}

// digest summarizes a run for determinism comparison: final virtual time,
// total messages, and every node's sorted view (host, seq, alive).
func (gc *gossipCluster) digest(t *testing.T) string {
	now := gc.eng.Now()
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(now))
	mix(uint64(gc.net.Messages))
	var view []ha.Member
	for _, node := range gc.nodes {
		view = node.Members().ViewInto(view)
		for _, m := range view {
			for i := 0; i < len(m.Host); i++ {
				mix(uint64(m.Host[i]))
			}
			mix(uint64(m.Seq))
			mix(uint64(m.Load))
			if m.Alive {
				mix(1)
			}
		}
	}
	return fmt.Sprintf("%x/t=%d/msgs=%d", h, now, gc.net.Messages)
}

// TestGossipDeterministicPerSeed: the same seed replays the same cluster
// history bit-for-bit; a different seed picks different gossip targets.
func TestGossipDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) string {
		gc := bootGossip(t, 50, seed)
		defer gc.stop()
		gc.runIntervals(t, 10)
		return gc.digest(t)
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a, b)
	}
	if c := run(43); c == a {
		t.Fatalf("different seed produced identical history %s (gossip not drawing from engine PRNG?)", c)
	}
}

// TestGossipMessageComplexity: per-interval heartbeat traffic is O(N·k),
// not O(N²) — measured at the receivers' HBPort counters.
func TestGossipMessageComplexity(t *testing.T) {
	const n = 200
	gc := bootGossip(t, n, 3)
	defer gc.stop()
	gc.runIntervals(t, 3) // settle
	var before int64
	for _, h := range gc.hosts {
		before += h.PortMsgsIn(ha.HBPort)
	}
	const intervals = 5
	gc.runIntervals(t, intervals)
	var after int64
	for _, h := range gc.hosts {
		after += h.PortMsgsIn(ha.HBPort)
	}
	perInterval := float64(after-before) / intervals
	// Anti-entropy sync is boot-only: once every roster is complete (well
	// before the settle window ends) no node sends another sync, so the
	// steady-state window must show zero sync traffic.
	var syncs int64
	for _, h := range gc.hosts {
		syncs += h.PortMsgsIn(ha.MemberSyncPort)
	}
	gc.runIntervals(t, 1)
	var syncs2 int64
	for _, h := range gc.hosts {
		syncs2 += h.PortMsgsIn(ha.MemberSyncPort)
	}
	if syncs2 != syncs {
		t.Fatalf("anti-entropy sync still running after convergence: %d msgs in one steady-state interval", syncs2-syncs)
	}
	k := float64(gc.nodes[0].Fanout())
	// Each beacon Call is two deliveries (request + ack), so O(N·k) shows
	// up as ≤ ~2·N·k per interval; leave 25% slack for boot-phase skew.
	if perInterval > 2.5*float64(n)*k {
		t.Fatalf("hb traffic %.0f msgs/interval exceeds 2.5·N·k = %.0f", perInterval, 2.5*float64(n)*k)
	}
	fullMesh := 2 * float64(n) * float64(n-1)
	if perInterval > fullMesh/8 {
		t.Fatalf("hb traffic %.0f msgs/interval is not clearly sub-quadratic (full mesh %.0f)", perInterval, fullMesh)
	}
}
