package experiments

// A11 — scale: a 1,000-host cluster under continuous migration churn and a
// crash/recover wave, in single-digit wall-clock seconds.
//
// The paper ran on two VAXen; the simulator's value is being able to ask
// what the same mechanisms do at three orders of magnitude more hosts.
// That is only worth asking if the run is fast enough to sit in CI, so
// this experiment doubles as the perf scenario: it reports wall-clock,
// events/second, allocations per event and heartbeat traffic, and
// migbench writes the numbers to BENCH_a11.json so the trajectory is
// recorded from one change to the next.
//
// Hosts here are synthetic StatSources — load figures and proc tables
// without kernels behind them — because the point is the control plane:
// gossip membership (O(N·k) heartbeat traffic per interval, not O(N²)),
// probe-based suspicion, anti-entropy bootstrap, and a migration data
// path riding the same netsim. Proc-count conservation is asserted at the
// end: every simulated process must still exist exactly once.

import (
	"fmt"
	"time"

	"procmig/internal/ha"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// A11Config sizes the scenario. The zero value means the CI default:
// 1,000 hosts, 10,000 processes, 40 one-second beacon intervals.
type A11Config struct {
	Hosts     int
	Procs     int
	Intervals int
	Seed      uint64
}

func (c A11Config) withDefaults() A11Config {
	if c.Hosts <= 0 {
		c.Hosts = 1000
	}
	if c.Procs <= 0 {
		c.Procs = 10000
	}
	if c.Intervals <= 0 {
		c.Intervals = 30
	}
	if c.Intervals < 20 {
		c.Intervals = 20 // the crash/recover wave needs room to play out
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// A11Result is everything migbench prints and BENCH_a11.json records.
type A11Result struct {
	Hosts     int `json:"hosts"`
	Procs     int `json:"procs"`
	GossipK   int `json:"gossip_fanout"`
	Intervals int `json:"intervals"`

	// Perf trajectory.
	VirtualTime    float64 `json:"virtual_s"`
	Wall           float64 `json:"wall_s"`
	Events         int64   `json:"events"`
	EventAllocs    int64   `json:"event_allocs"`
	EventsPerSec   float64 `json:"events_per_sec"`
	VirtualRatio   float64 `json:"virtual_ratio"` // virtual seconds per wall second
	AllocsPerEvent float64 `json:"allocs_per_event"`
	HeapMax        int     `json:"heap_max"`

	// Traffic: sub-quadratic heartbeats.
	HBMsgsPerInterval       float64 `json:"hb_msgs_per_interval"`
	FullMeshMsgsPerInterval float64 `json:"full_mesh_msgs_per_interval"`
	SyncMsgs                int64   `json:"sync_msgs"`
	SyncBytes               int64   `json:"sync_bytes"` // requests and replies on MemberSyncPort

	// Behaviour.
	ConvergedIn   int   `json:"converged_in_intervals"`
	Migrations    int64 `json:"migrations"`
	WaveSize      int   `json:"wave_size"`
	WaveSuspected int   `json:"wave_suspected"`
	WaveRecovered int   `json:"wave_recovered"`
	FalseSuspects int   `json:"false_suspects"`
}

// scaleSource is a synthetic host: a proc table and a load figure, no
// kernel. Its run-queue length is its proc count, so the balancing signal
// in heartbeats is real even though the procs are bookkeeping entries.
type scaleSource struct {
	name  string
	procs []ha.ProcStat
}

func (s *scaleSource) HostName() string { return s.name }
func (s *scaleSource) RunQueueLen() int { return len(s.procs) }

// AppendProcStats reports every proc, as a census answer does: beacons
// carry none, so nothing here needs a cap.
func (s *scaleSource) AppendProcStats(now sim.Time, dst []ha.ProcStat) []ha.ProcStat {
	return append(dst, s.procs...)
}

func (s *scaleSource) add(p ha.ProcStat) { s.procs = append(s.procs, p) }
func (s *scaleSource) take() (ha.ProcStat, bool) {
	if len(s.procs) == 0 {
		return ha.ProcStat{}, false
	}
	p := s.procs[len(s.procs)-1]
	s.procs = s.procs[:len(s.procs)-1]
	return p, true
}

// a11MigPort carries churn migrations: a tiny proc record moving between
// synthetic hosts over the same simulated network the beacons use.
const a11MigPort = 540

// A11Scale runs the scenario and checks its invariants: heartbeat traffic
// stays O(N·k) per interval (and well under full mesh), the cluster
// converges during bootstrap, the crash wave is detected and recovered,
// and no simulated process is lost or duplicated by churn.
func A11Scale(cfg A11Config) (*A11Result, error) {
	cfg = cfg.withDefaults()
	N := cfg.Hosts
	eng := sim.NewEngine()
	defer eng.Close()
	eng.Seed(cfg.Seed)
	net := netsim.New(eng, 200*sim.Microsecond, 0)

	names := make([]string, N)
	hosts := make([]*netsim.Host, N)
	srcs := make([]*scaleSource, N)
	for i := 0; i < N; i++ {
		names[i] = fmt.Sprintf("h%04d", i)
		hosts[i] = net.AddHost(names[i])
		srcs[i] = &scaleSource{name: names[i]}
	}
	// Deal the procs round-robin with a seeded skew: some hosts start
	// loaded, which is what gives the churners something to balance.
	pid := 1
	for p := 0; p < cfg.Procs; p++ {
		i := int(eng.Rand() % uint64(N))
		srcs[i].add(ha.ProcStat{PID: pid, Age: 0})
		pid++
	}

	nodes := make([]*ha.Node, N)
	for i := 0; i < N; i++ {
		node, err := ha.StartSource(eng, hosts[i], srcs[i], nil, ha.Config{})
		if err != nil {
			return nil, fmt.Errorf("a11: start %s: %v", names[i], err)
		}
		peers := make([]string, 0, N-1)
		for j := 0; j < N; j++ {
			if j != i {
				peers = append(peers, names[j])
			}
		}
		node.SetPeers(peers)
		nodes[i] = node
		i := i
		if err := hosts[i].Listen(a11MigPort, func(t *sim.Task, raw []byte) []byte {
			srcs[i].add(ha.ProcStat{PID: int(raw[0]) | int(raw[1])<<8 | int(raw[2])<<16})
			return []byte{1}
		}); err != nil {
			return nil, err
		}
	}

	res := &A11Result{
		Hosts: N, Procs: cfg.Procs, Intervals: cfg.Intervals,
		GossipK: nodes[0].Fanout(),
	}

	// Churners: a fixed pool of migration drivers. Each picks a loaded
	// source host, asks that host's own membership view for a lighter
	// alive target, and moves one proc across the wire. The proc leaves
	// the source only when the transfer call succeeded.
	var migrations int64
	stop := false
	churn := func(task *sim.Task) {
		task.Sleep(2 * sim.Second) // let first views form
		for !stop {
			task.Sleep(sim.Duration(200+eng.Rand()%200) * sim.Millisecond)
			si := int(eng.Rand() % uint64(N))
			if hosts[si].Down() || len(srcs[si].procs) == 0 {
				continue
			}
			// Sample a few candidates from the source's own view.
			now := task.Now()
			best, bestLoad := -1, len(srcs[si].procs)
			for c := 0; c < 4; c++ {
				di := int(eng.Rand() % uint64(N))
				if di == si {
					continue
				}
				m, ok := nodes[si].Members().Get(names[di], now)
				if !ok || !m.Alive || m.Load >= bestLoad {
					continue
				}
				best, bestLoad = di, m.Load
			}
			if best < 0 {
				continue
			}
			p, ok := srcs[si].take()
			if !ok {
				continue
			}
			buf := []byte{byte(p.PID), byte(p.PID >> 8), byte(p.PID >> 16), 0}
			if _, err := hosts[si].Call(task, names[best], a11MigPort, buf); err != nil {
				srcs[si].add(p) // transfer failed: the proc never left
				continue
			}
			migrations++
		}
	}
	for c := 0; c < 32; c++ {
		eng.Go(fmt.Sprintf("churn%d", c), churn)
	}

	start := time.Now()

	// Bootstrap: run interval by interval until every node sees every
	// host alive, recording how long that took.
	probe := nodes[0].Members()
	res.ConvergedIn = -1
	bootCap := 16
	if bootCap > cfg.Intervals/2 {
		bootCap = cfg.Intervals / 2
	}
	for iv := 1; iv <= bootCap; iv++ {
		if err := eng.RunUntil(sim.Time(sim.Duration(iv) * sim.Second)); err != nil {
			return nil, fmt.Errorf("a11: %v", err)
		}
		now := eng.Now()
		all := true
		for _, node := range nodes {
			ms := node.Members()
			if ms.Len() != N {
				all = false
				break
			}
		}
		if all {
			ok := true
			for _, nm := range names {
				if !probe.Alive(nm, now) {
					ok = false
					break
				}
			}
			if ok {
				res.ConvergedIn = iv
				break
			}
		}
	}
	if res.ConvergedIn < 0 {
		return nil, fmt.Errorf("a11: cluster did not converge within %d intervals", bootCap)
	}

	// Steady-state traffic window: measure HB deliveries over 5 intervals
	// after convergence, before the wave makes probes fail.
	hbIn := func() int64 {
		var tot int64
		for _, h := range hosts {
			tot += h.PortMsgsIn(ha.HBPort)
		}
		return tot
	}
	syncIn := func() int64 {
		var tot int64
		for _, h := range hosts {
			tot += h.PortMsgsIn(ha.MemberSyncPort)
		}
		return tot
	}
	base := sim.Duration(res.ConvergedIn) * sim.Second
	before := hbIn()
	if err := eng.RunUntil(sim.Time(base + 5*sim.Second)); err != nil {
		return nil, fmt.Errorf("a11: %v", err)
	}
	res.HBMsgsPerInterval = float64(hbIn()-before) / 5
	res.FullMeshMsgsPerInterval = 2 * float64(N) * float64(N-1)
	k := float64(res.GossipK)
	if res.HBMsgsPerInterval > 2.5*float64(N)*k {
		return nil, fmt.Errorf("a11: hb traffic %.0f msgs/interval exceeds 2.5·N·k = %.0f",
			res.HBMsgsPerInterval, 2.5*float64(N)*k)
	}
	// The full-mesh comparison only separates from the O(N·k) bound once
	// N ≫ 8·k·…: at smoke sizes (N≈60) 2·N·k and N²/8 overlap.
	if N >= 150 && res.HBMsgsPerInterval > res.FullMeshMsgsPerInterval/8 {
		return nil, fmt.Errorf("a11: hb traffic %.0f msgs/interval is not clearly sub-quadratic (full mesh %.0f)",
			res.HBMsgsPerInterval, res.FullMeshMsgsPerInterval)
	}

	// Crash wave: take down 2% of the cluster (at least 5 hosts), dwell
	// long enough for probe-based suspicion to spread, and check a live
	// observer noticed every one of them.
	waveSize := N / 50
	if waveSize < 5 {
		waveSize = 5
	}
	if waveSize > N/2 {
		waveSize = N / 2
	}
	wave := make([]int, 0, waveSize)
	for i := 0; i < waveSize; i++ {
		wave = append(wave, N/2+i) // a contiguous block far from the probe
	}
	res.WaveSize = waveSize
	for _, i := range wave {
		hosts[i].SetDown(true)
	}
	dwell := 6 * sim.Second
	if err := eng.RunUntil(sim.Time(base + 5*sim.Second + dwell)); err != nil {
		return nil, fmt.Errorf("a11: %v", err)
	}
	now := eng.Now()
	for _, i := range wave {
		if !probe.Alive(names[i], now) {
			res.WaveSuspected++
		}
	}

	// Recovery: bring the wave back; advancing sequence numbers refute
	// the suspicions and the hosts rejoin.
	for _, i := range wave {
		hosts[i].SetDown(false)
	}
	if err := eng.RunUntil(sim.Time(base + 5*sim.Second + 2*dwell)); err != nil {
		return nil, fmt.Errorf("a11: %v", err)
	}
	now = eng.Now()
	for _, i := range wave {
		if probe.Alive(names[i], now) {
			res.WaveRecovered++
		}
	}

	// Run out the rest of the scenario under churn, then stop.
	if err := eng.RunUntil(sim.Time(sim.Duration(cfg.Intervals) * sim.Second)); err != nil {
		return nil, fmt.Errorf("a11: %v", err)
	}
	stop = true
	if err := eng.RunUntil(sim.Time(sim.Duration(cfg.Intervals)*sim.Second + sim.Second)); err != nil {
		return nil, fmt.Errorf("a11: %v", err)
	}
	res.Wall = time.Since(start).Seconds()

	// Invariants.
	if res.WaveSuspected != waveSize {
		return nil, fmt.Errorf("a11: only %d/%d crashed hosts suspected after %v", res.WaveSuspected, waveSize, dwell)
	}
	if res.WaveRecovered != waveSize {
		return nil, fmt.Errorf("a11: only %d/%d recovered hosts alive again", res.WaveRecovered, waveSize)
	}
	now = eng.Now()
	for i, nm := range names {
		if !hosts[i].Down() && !probe.Alive(nm, now) {
			res.FalseSuspects++
		}
	}
	if res.FalseSuspects > 0 {
		return nil, fmt.Errorf("a11: %d live hosts falsely suspected at end of run", res.FalseSuspects)
	}
	total := 0
	for _, s := range srcs {
		total += len(s.procs)
	}
	if total != cfg.Procs {
		return nil, fmt.Errorf("a11: proc conservation broken: %d procs, want %d", total, cfg.Procs)
	}
	res.Migrations = migrations
	if migrations == 0 {
		return nil, fmt.Errorf("a11: churners performed no migrations")
	}

	st := eng.Stats()
	res.VirtualTime = float64(cfg.Intervals)
	res.Events = st.Dispatched
	res.EventAllocs = st.EventAllocs
	res.HeapMax = st.HeapMax
	res.SyncMsgs = syncIn()
	for _, h := range hosts {
		res.SyncBytes += h.ClientBytes(ha.MemberSyncPort)
	}
	if res.Wall > 0 {
		res.EventsPerSec = float64(st.Dispatched) / res.Wall
		res.VirtualRatio = res.VirtualTime / res.Wall
	}
	if st.Dispatched > 0 {
		res.AllocsPerEvent = float64(st.EventAllocs) / float64(st.Dispatched)
	}
	return res, nil
}
