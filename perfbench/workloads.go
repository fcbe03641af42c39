package main

import (
	"errors"
	"fmt"
	"sort"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// workload is one closed scenario. sims names the simulated end-to-end
// metrics it reports beside the host metrics every workload reports.
type workload struct {
	name string
	run  func(r *rep, seed uint64, o options) (*repResult, error)
	sims []string
}

// The workloads load different layers, so a change to one layer moves
// one workload and leaves another flat; LAYERS.md says which, and
// BENCHMARK.json why each was chosen.
var workloads = []workload{
	{
		name: "sli-drain",
		run:  runSLI,
		sims: []string{"client_p50_ms", "client_p99_ms", "control_p99_ms", "slo_miss_frac",
			"freeze_p50_ms", "freeze_max_ms", "drain_makespan_s", "wire_mb", "fail_frac"},
	},
	{
		name: "dedup-drain",
		run:  runDedup,
		sims: []string{"freeze_p50_ms", "freeze_max_ms", "drain_makespan_s", "wire_mb", "heal_s", "fail_frac"},
	},
	{
		name: "gossip-churn",
		run:  runGossip,
		sims: []string{"wire_mb", "heal_s", "detect_s", "fail_frac"},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// options sizes a run and, in tests, sabotages it to prove a gate fails.
type options struct {
	tiny     bool
	sabotage string // "kill-replica" or "starve-load"
}

// gateError is a correctness gate that failed: the run's outputs are
// wrong and it reports no metrics.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "gate failed: " + e.msg }

func gateErr(format string, args ...any) error {
	return &gateError{fmt.Sprintf(format, args...)}
}

func isGate(err error) bool {
	var g *gateError
	return errors.As(err, &g)
}

// splitmix is the input generator: everything a workload derives from
// its seed comes from here or from the engine seeded with it.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// lcgSeed is a seed-derived start value for a replica program's
// generator, kept within the assembler's positive immediates.
func lcgSeed(seed uint64) uint32 {
	s := splitmix(seed)
	return uint32(s.next()&0x7fffffff) | 1
}

// bootCluster builds an n-host cluster, seeds its engine and attaches
// the rep to it.
func bootCluster(r *rep, n int, seed uint64) (*cluster.Cluster, error) {
	specs := make([]cluster.HostSpec, n)
	for i := range specs {
		specs[i] = cluster.HostSpec{Name: fmt.Sprintf("h%03d", i), ISA: vm.ISA1}
	}
	var c *cluster.Cluster
	err := r.call("cluster", "New", func() (err error) {
		c, err = cluster.New(cluster.Options{Hosts: specs, Config: kernel.Config{TrackNames: true}})
		return err
	})
	if err != nil {
		return nil, err
	}
	c.Eng.Seed(seed)
	hosts := make([]*netsim.Host, 0, n)
	for _, name := range c.Names() {
		hosts = append(hosts, c.NetHost(name))
	}
	r.attach(c.Eng, c.Obs, hosts)
	return c, nil
}

// replicaSet follows one controller app through the kernels by pid
// lookup: the controller's bindings name (host, pid) pairs, and every
// pair ever bound is remembered, so a copy left running behind a move
// shows up at the next phase end. Nothing here scans a process table.
type replicaSet struct {
	c    *cluster.Cluster
	ctl  *controller.Controller
	app  string
	want int
	seen map[hostPID]bool
}

type hostPID struct {
	host string
	pid  int
}

func newReplicaSet(c *cluster.Cluster, ctl *controller.Controller, app string, want int) *replicaSet {
	return &replicaSet{c: c, ctl: ctl, app: app, want: want, seen: map[hostPID]bool{}}
}

func (s *replicaSet) running(hp hostPID) bool {
	if hp.pid <= 0 || s.c.NetHost(hp.host).Down() {
		return false
	}
	p, ok := s.c.Machine(hp.host).FindProc(hp.pid)
	return ok && p.State == kernel.ProcRunning
}

// bindings returns the controller's current (host, pid) per replica.
func (s *replicaSet) bindings() []hostPID {
	st, _ := s.ctl.App(s.app)
	out := make([]hostPID, 0, len(st.Replicas))
	for _, b := range st.Replicas {
		hp := hostPID{b.Host, b.PID}
		if hp.pid > 0 {
			s.seen[hp] = true
		}
		out = append(out, hp)
	}
	return out
}

// live counts bound replicas running and how many of them run on host,
// and reports a stray: a pid once bound that still runs unbound, the
// transient duplicate a wrong conviction leaves until the controller's
// reaper kills it.
func (s *replicaSet) live(host string) (n, on int, stray bool) {
	bound := map[hostPID]bool{}
	for _, hp := range s.bindings() {
		bound[hp] = true
		if s.running(hp) {
			n++
			if hp.host == host {
				on++
			}
		}
	}
	for hp := range s.seen {
		if !bound[hp] && s.running(hp) {
			stray = true
		}
	}
	return n, on, stray
}

func (s *replicaSet) converged() bool {
	n, _, stray := s.live("")
	return n == s.want && !stray && s.ctl.Converged()
}

// drained reports a finished drain of host with every replica running
// elsewhere.
func (s *replicaSet) drained(host string) bool {
	st, ok := s.ctl.DrainStatus(host)
	if !ok || !st.Done {
		return false
	}
	n, on, stray := s.live(host)
	return n == s.want && on == 0 && !stray && s.ctl.Converged()
}

// packed returns the host carrying every replica, or "".
func (s *replicaSet) packed() string {
	per := map[string]int{}
	for _, hp := range s.bindings() {
		if s.running(hp) {
			per[hp.host]++
		}
	}
	for h, n := range per {
		if n == s.want {
			return h
		}
	}
	return ""
}

// oneCopyEach is the phase-end gate: exactly one live copy of every
// replica — each binding runs, and no pid ever bound still runs unbound.
func (s *replicaSet) oneCopyEach(phase string) error {
	bound := map[hostPID]bool{}
	for i, hp := range s.bindings() {
		if !s.running(hp) {
			return gateErr("%s: replica %d (%s pid %d) is not running", phase, i, hp.host, hp.pid)
		}
		bound[hp] = true
	}
	if len(bound) != s.want {
		return gateErr("%s: %d distinct live replicas, want %d", phase, len(bound), s.want)
	}
	for hp := range s.seen {
		if !bound[hp] && s.running(hp) {
			return gateErr("%s: stale copy %s pid %d still running", phase, hp.host, hp.pid)
		}
	}
	return nil
}

// rollout submits spec, waits until every replica runs bound on one
// packed host, and checks one live copy each.
func rollout(r *rep, app *replicaSet, spec controller.AppSpec, budget sim.Duration) (string, error) {
	if err := r.call("controller", "Submit", func() error { return app.ctl.Submit(spec) }); err != nil {
		return "", err
	}
	if _, err := r.stepUntil("rollout", ctlPeriod, budget, app.converged); err != nil {
		return "", err
	}
	var pack string
	err := r.checkErr(func() error {
		if pack = app.packed(); pack == "" {
			return gateErr("rollout did not pack all %d replicas on one host", app.want)
		}
		return app.oneCopyEach("rollout")
	})
	return pack, err
}

// userCPU sums the user CPU of every live process on a running host:
// one process-table scan, at harvest only.
func userCPU(c *cluster.Cluster) float64 {
	var t sim.Duration
	for _, name := range c.Names() {
		if c.NetHost(name).Down() {
			continue
		}
		for _, p := range c.Machine(name).Procs() {
			t += p.UTime
		}
	}
	return float64(t) / float64(sim.Second)
}

// freezes returns the median and largest freeze window per migration,
// in ms, from the tracer's freeze spans under migration roots; a
// retried migration's freezes add up.
func freezes(tr *obs.Tracer) (p50, max float64) {
	spans := tr.Spans()
	migration := map[int]bool{}
	for _, sp := range spans {
		if sp.Parent == 0 && sp.Name == "migration" {
			migration[sp.ID] = true
		}
	}
	per := map[uint32]sim.Duration{}
	for _, sp := range spans {
		if sp.Name == "freeze" && sp.Ended && migration[sp.Parent] {
			per[sp.Txn] += sim.Duration(sp.Stop - sp.Start)
		}
	}
	if len(per) == 0 {
		return 0, 0
	}
	vals := make([]float64, 0, len(per))
	for _, d := range per {
		vals = append(vals, float64(d)/float64(sim.Millisecond))
	}
	sort.Float64s(vals)
	return median(vals), vals[len(vals)-1]
}

func seconds(d sim.Duration) float64 { return float64(d) / float64(sim.Second) }
