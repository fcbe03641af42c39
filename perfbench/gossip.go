package main

import (
	"fmt"

	"procmig/internal/ha"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// gossip-churn: synthetic hosts (a proc table and a load figure, no
// kernel) run only the heartbeat and membership slice of the control
// plane. After bootstrap, churners move bookkeeping procs between hosts
// over the network; then a crash wave takes hosts down, and they come
// back. No kernel, VM, stream, page store, controller or load code runs.

type gossipShape struct {
	Hosts, Procs, Churners int
	Churn                  sim.Duration
}

var (
	gossipFull = gossipShape{Hosts: 500, Procs: 5000, Churners: 32, Churn: 5 * sim.Second}
	gossipTiny = gossipShape{Hosts: 60, Procs: 600, Churners: 8, Churn: 3 * sim.Second}
)

const churnPort = 540

// Bootstrap, wave and heal are fixed windows, longer than any seed
// needs, so every seed simulates the same span.
const (
	bootWindow = 12 * sim.Second
	waveWindow = 8 * sim.Second
	healWindow = 5 * sim.Second
)

// synthHost is a StatSource with a proc table and no kernel; its
// run-queue length is its proc count.
type synthHost struct {
	name  string
	procs []ha.ProcStat
}

func (s *synthHost) HostName() string { return s.name }
func (s *synthHost) RunQueueLen() int { return len(s.procs) }

// AppendProcStats reports at most 8 procs: beacons carry a sample.
func (s *synthHost) AppendProcStats(now sim.Time, dst []ha.ProcStat) []ha.ProcStat {
	return append(dst, s.procs[:min(len(s.procs), 8)]...)
}

func runGossip(r *rep, seed uint64, o options) (*repResult, error) {
	z := gossipFull
	if o.tiny {
		z = gossipTiny
	}
	n := z.Hosts
	var (
		eng     *sim.Engine
		names   = make([]string, n)
		hosts   = make([]*netsim.Host, n)
		srcs    = make([]*synthHost, n)
		nodes   = make([]*ha.Node, n)
		churn   bool
		calls   int64
		callErr int64
	)
	err := r.run("build", false, func() error {
		eng = sim.NewEngine()
		eng.Seed(seed)
		net := netsim.New(eng, 200*sim.Microsecond, 0)
		reg := obs.NewRegistry()
		net.SetObs(reg)
		for i := range hosts {
			names[i] = fmt.Sprintf("h%04d", i)
			hosts[i] = net.AddHost(names[i])
			srcs[i] = &synthHost{name: names[i]}
		}
		r.attach(eng, reg, hosts)
		for p := 1; p <= z.Procs; p++ {
			i := eng.Rand() % uint64(n)
			srcs[i].procs = append(srcs[i].procs, ha.ProcStat{PID: p})
		}
		return r.call("ha", "StartSource", func() error {
			for i := range nodes {
				node, err := ha.StartSource(eng, hosts[i], srcs[i], reg.Scope(names[i]), ha.Config{})
				if err != nil {
					return err
				}
				peers := make([]string, 0, n-1)
				peers = append(peers, names[:i]...)
				node.SetPeers(append(peers, names[i+1:]...))
				nodes[i] = node
				src := srcs[i]
				if err := hosts[i].Listen(churnPort, func(t *sim.Task, raw []byte) []byte {
					src.procs = append(src.procs, ha.ProcStat{PID: int(raw[0]) | int(raw[1])<<8 | int(raw[2])<<16})
					return []byte{1}
				}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	// A churner picks a random loaded source, asks that host's own view
	// for a lighter live target among a few candidates, and moves one
	// proc; the proc leaves the source only if the transfer succeeded.
	mover := func(t *sim.Task) {
		for {
			t.Sleep(sim.Duration(200+eng.Rand()%200) * sim.Millisecond)
			if !churn {
				continue
			}
			si := int(eng.Rand() % uint64(n))
			src := srcs[si]
			if hosts[si].Down() || len(src.procs) == 0 {
				continue
			}
			best, bestLoad := -1, len(src.procs)
			for k := 0; k < 4; k++ {
				di := int(eng.Rand() % uint64(n))
				m, ok := nodes[si].Members().Get(names[di], t.Now())
				if di == si || !ok || !m.Alive || m.Load >= bestLoad {
					continue
				}
				best, bestLoad = di, m.Load
			}
			if best < 0 {
				continue
			}
			p := src.procs[len(src.procs)-1]
			src.procs = src.procs[:len(src.procs)-1]
			calls++
			if _, err := hosts[si].Call(t, names[best], churnPort, []byte{byte(p.PID), byte(p.PID >> 8), byte(p.PID >> 16)}); err != nil {
				callErr++
				src.procs = append(src.procs, p)
			}
		}
	}
	for k := 0; k < z.Churners; k++ {
		eng.Go(fmt.Sprintf("churn%d", k), mover)
	}

	probe := nodes[0].Members()
	allAlive := func(idx []int) bool {
		now := r.now()
		for _, i := range idx {
			if !probe.Alive(names[i], now) {
				return false
			}
		}
		return true
	}
	everyone := make([]int, n)
	for i := range everyone {
		everyone[i] = i
	}
	// The wave is 2% of the hosts, drawn from the seed, never the probe.
	gen := splitmix(seed)
	var wave []int
	inWave := map[int]bool{}
	for len(wave) < max(n/50, 2) {
		i := 1 + int(gen.next()%uint64(n-1))
		if !inWave[i] {
			inWave[i] = true
			wave = append(wave, i)
		}
	}

	if err := r.run("bootstrap", true, func() error {
		_, err := r.within("bootstrap", sim.Second, bootWindow, func() bool {
			for _, node := range nodes {
				if node.Members().Len() != n {
					return false
				}
			}
			return allAlive(everyone)
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.run("churn", true, func() error {
		churn = true
		if err := r.step(z.Churn); err != nil {
			return err
		}
		// Stop, then let every transfer in flight land before the wave.
		churn = false
		return r.step(sim.Second)
	}); err != nil {
		return nil, err
	}
	var detect, heal sim.Duration
	if err := r.run("wave", true, func() (err error) {
		for _, i := range wave {
			hosts[i].Crash()
		}
		detect, err = r.within("wave detection", 100*sim.Millisecond, waveWindow, func() bool {
			now := r.now()
			for _, i := range wave {
				if probe.Alive(names[i], now) {
					return false
				}
			}
			return true
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.run("heal", true, func() (err error) {
		for _, i := range wave {
			hosts[i].Revive()
		}
		heal, err = r.within("wave recovery", 100*sim.Millisecond, healWindow, func() bool { return allAlive(wave) })
		return err
	}); err != nil {
		return nil, err
	}

	var res *repResult
	err = r.run("harvest", false, func() (err error) {
		r.bench(func() {
			now := r.now()
			suspects, total := 0, 0
			for i := range srcs {
				total += len(srcs[i].procs)
				if !probe.Alive(names[i], now) {
					suspects++
				}
			}
			switch {
			case suspects != 0:
				err = gateErr("%d live hosts suspected after the wave recovered", suspects)
			case total != z.Procs:
				err = gateErr("procs not conserved: %d, want %d", total, z.Procs)
			case calls == 0:
				err = gateErr("the churners moved nothing")
			}
			if err != nil {
				return
			}
			res = r.result(map[string]float64{
				"detect_s":  seconds(detect),
				"heal_s":    seconds(heal),
				"fail_frac": float64(callErr) / float64(calls),
			}, map[string]float64{"vm.user_cpu_s": 0}, calls, callErr)
		})
		return err
	})
	return res, err
}
