package main

import (
	"fmt"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/load"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// sli-drain: replicas packed on one host serve one open-loop client
// each. A control window with no migration is followed by a controller
// drain of the packed host on the default streaming pre-copy and page
// store path, then a settle that fills an equal-length window and a
// serve-out. Each replica's working set is its own and gets new content
// every beat, so the page store misses, inserts and evicts but rarely
// hits.

const sliPath = "/bin/slisvc"

// sliShape sizes the workload. Util is the request load offered to the
// packed host's CPU, Replicas × Service / Interval; Window is the length
// of both the control window and the drain window.
type sliShape struct {
	Hosts, Replicas, DataKiB, DirtyPages int
	Util                                 float64
	Service, Window                      sim.Duration
	StoreKiB                             int64
}

var sliFull = sliShape{
	Hosts: 40, Replicas: 6, DataKiB: 128, DirtyPages: 4, Util: 0.15,
	Service: 2 * sim.Millisecond, Window: 40 * sim.Second, StoreKiB: 512,
}

var sliTiny = sliShape{
	Hosts: 10, Replicas: 3, DataKiB: 32, DirtyPages: 4, Util: 0.15,
	Service: 2 * sim.Millisecond, Window: 30 * sim.Second, StoreKiB: 64,
}

const (
	sliTimeout = 30 * sim.Second
	sliSLO     = 50 * sim.Millisecond
	// The control window must look like an unloaded server: p50 within
	// sliMaxP50 service times and at most sliMaxBreach of requests over
	// the SLO. A saturated run fails here instead of reporting latency
	// that measures its own queue.
	sliMaxP50    = 4
	sliMaxBreach = 0.01
	ctlPeriod    = 2 * sim.Second
)

// sliSrc is the replica program: fill a dataKiB working set from an LCG
// seeded with getpid() xor mix, then every one-second beat overwrite the
// next dirty pages with fresh LCG output, wrapping around the set.
func sliSrc(dataKiB, dirtyPages int, mix uint32) string {
	return fmt.Sprintf(`
        sys  getpid
        mov  r5, r0
        movi r6, %d
        xor  r5, r6
        movi r6, 1103515245
        movi r2, ws
init:   mul  r5, r6
        addi r5, 12345
        str  r2, r5
        addi r2, 4
        cmpi r2, wsend
        jlt  init
        movi r2, ws
beat:   movi r4, %d
fill:   mul  r5, r6
        addi r5, 12345
        str  r2, r5
        addi r2, 4
        cmpi r2, wsend
        jlt  next
        movi r2, ws
next:   subi r4, 1
        cmpi r4, 0
        jgt  fill
        movi r0, 1
        sys  sleep
        jmp  beat
        .data
ws:     .space %d
wsend:  .word 0
`, mix, dirtyPages*256, dataKiB<<10)
}

func runSLI(r *rep, seed uint64, o options) (*repResult, error) {
	z := sliFull
	if o.tiny {
		z = sliTiny
	}
	interval := sim.Duration(float64(z.Replicas) * float64(z.Service) / z.Util)
	if o.sabotage == "starve-load" {
		interval = z.Service * sim.Duration(z.Replicas) / 2 // offered load 2× the CPU
	}
	execStorm := sim.Duration(z.Replicas*z.DataKiB)*5*sim.Millisecond + sim.Duration(z.Replicas)*100*sim.Millisecond

	var c *cluster.Cluster
	var ctl *controller.Controller
	err := r.run("build", false, func() (err error) {
		if c, err = bootCluster(r, z.Hosts, seed); err != nil {
			return err
		}
		c.ConfigurePageStores(z.StoreKiB << 10)
		if err := r.call("cluster", "InstallVM", func() error {
			return c.InstallVM(sliPath, sliSrc(z.DataKiB, z.DirtyPages, lcgSeed(seed)))
		}); err != nil {
			return err
		}
		// Nothing is protected and the checkpoint period outlasts the
		// run, so HA carries only membership.
		if err := r.call("cluster", "StartHA", func() error {
			return c.StartHA(ha.Config{Interval: sim.Second, CkptInterval: 600 * sim.Second})
		}); err != nil {
			return err
		}
		return r.call("cluster", "StartController", func() (err error) {
			ctl, err = c.StartController("h000", controller.Config{
				Period: ctlPeriod, MaxActionsPerRound: z.Replicas + 8, DrainWave: 2,
				SpawnGrace: execStorm + 10*sim.Second,
			})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if err := r.run("warmup", false, func() error { return r.step(10 * sim.Second) }); err != nil {
		return nil, err
	}
	app := newReplicaSet(c, ctl, "sli", z.Replicas)
	var pack string
	if err := r.run("rollout", false, func() error {
		var err error
		pack, err = rollout(r, app, controller.AppSpec{
			Name: "sli", Path: sliPath, Replicas: z.Replicas,
			Policy: "binpack", MaxPerHost: z.Replicas, Avoid: []string{"h000"},
		}, 2*execStorm+60*sim.Second)
		if err != nil {
			return err
		}
		// Replicas are bound as soon as they exist; let their image loads
		// and fills finish before any client arrives.
		return r.step(10 * sim.Second)
	}); err != nil {
		return nil, err
	}

	machines := make([]*kernel.Machine, 0, z.Hosts)
	for _, name := range c.Names() {
		machines = append(machines, c.Machine(name))
	}
	clients := func(tag string) ([]*load.Generator, error) {
		var gens []*load.Generator
		err := r.call("load", "Start", func() error {
			for i, hp := range app.bindings() {
				p, ok := c.Machine(hp.host).FindProc(hp.pid)
				if !ok {
					return gateErr("replica %d (%s pid %d) vanished before its client started", i, hp.host, hp.pid)
				}
				name := fmt.Sprintf("%s%02d", tag, i)
				gens = append(gens, load.Start(c.Eng, c.Obs.Scope(name), load.Config{
					Name: name, Interval: interval, Service: z.Service,
					Timeout: sliTimeout, Window: sim.Second, SLO: load.SLO{P99: sliSLO},
				}, load.NewLineage(machines, p).Target()))
			}
			return nil
		})
		return gens, err
	}
	serveOut := func(gens []*load.Generator) error {
		for _, g := range gens {
			g.Stop()
		}
		_, err := r.stepUntil("serve-out", 100*sim.Millisecond, 2*sliTimeout, func() bool {
			for _, g := range gens {
				if !g.Drained() {
					return false
				}
			}
			return true
		})
		return err
	}
	if o.sabotage == "kill-replica" {
		hp := app.bindings()[0]
		c.Machine(hp.host).Kill(kernel.Creds{}, hp.pid, kernel.SIGKILL)
	}

	var ctlGens, drnGens []*load.Generator
	if err := r.run("control", true, func() (err error) {
		if ctlGens, err = clients("ctl"); err != nil {
			return err
		}
		if err := r.step(z.Window); err != nil {
			return err
		}
		if err := serveOut(ctlGens); err != nil {
			return err
		}
		return r.checkErr(func() error { return app.oneCopyEach("control") })
	}); err != nil {
		return nil, err
	}
	var drainAt sim.Time
	if err := r.run("drain", true, func() (err error) {
		if drnGens, err = clients("drn"); err != nil {
			return err
		}
		drainAt = r.now()
		if err := r.call("cluster", "DrainHost", func() error { return c.DrainHost(pack) }); err != nil {
			return err
		}
		if _, err := r.stepUntil("drain", sim.Second, z.Window, func() bool { return app.drained(pack) }); err != nil {
			return err
		}
		return r.checkErr(func() error { return app.oneCopyEach("drain") })
	}); err != nil {
		return nil, err
	}
	if err := r.run("settle", true, func() error {
		rest := sim.Duration(drainAt + sim.Time(z.Window) - r.now())
		if rest < 0 {
			return gateErr("the drain outlasted the %v client window", z.Window)
		}
		if err := r.step(rest); err != nil {
			return err
		}
		if err := serveOut(drnGens); err != nil {
			return err
		}
		return r.checkErr(func() error { return app.oneCopyEach("settle") })
	}); err != nil {
		return nil, err
	}

	var res *repResult
	err = r.run("harvest", false, func() (err error) {
		r.bench(func() {
			ctlHDR, ctlStats := mergeClients(ctlGens)
			drnHDR, drnStats := mergeClients(drnGens)
			for _, w := range []struct {
				name string
				st   load.Stats
			}{{"control", ctlStats}, {"drain", drnStats}} {
				if w.st.Submitted == 0 || w.st.Submitted != w.st.Completed+w.st.Dropped {
					err = gateErr("%s window: %d submitted, %d completed, %d dropped",
						w.name, w.st.Submitted, w.st.Completed, w.st.Dropped)
					return
				}
			}
			if p50 := sim.Duration(ctlHDR.P50()); p50 > sliMaxP50*z.Service {
				err = gateErr("control window saturated: client p50 %v for a %v service at utilisation %.2f",
					p50, z.Service, z.Util)
				return
			}
			if f := float64(ctlStats.Breaches) / float64(ctlStats.Submitted); f > sliMaxBreach {
				err = gateErr("control window saturated: %.3f of requests over the %v SLO", f, sliSLO)
				return
			}
			st, _ := ctl.DrainStatus(pack)
			if st.Failed != 0 || st.Moved != z.Replicas {
				err = gateErr("drain of %s moved %d of %d replicas, %d failed", pack, st.Moved, z.Replicas, st.Failed)
				return
			}
			fp50, fmax := freezes(c.Obs.Tracer)
			attempted := ctlStats.Submitted + drnStats.Submitted + int64(st.Moved+st.Failed)
			failed := ctlStats.Dropped + drnStats.Dropped + int64(st.Failed)
			res = r.result(map[string]float64{
				"client_p50_ms":    float64(drnHDR.P50()) / 1e3,
				"client_p99_ms":    float64(drnHDR.P99()) / 1e3,
				"control_p99_ms":   float64(ctlHDR.P99()) / 1e3,
				"slo_miss_frac":    float64(drnStats.Breaches) / float64(drnStats.Submitted),
				"freeze_p50_ms":    fp50,
				"freeze_max_ms":    fmax,
				"drain_makespan_s": seconds(st.Makespan),
				"fail_frac":        float64(failed) / float64(attempted),
			}, map[string]float64{"vm.user_cpu_s": userCPU(c)}, attempted, failed)
			if n := res.Work["controller.respawns"]; n != 0 {
				err = gateErr("the controller respawned %.0f lost replicas", n)
			}
		})
		return err
	})
	return res, err
}

// mergeClients merges the generators' latency histograms (quantiles of
// the union, not averaged percentiles) and sums their counts.
func mergeClients(gens []*load.Generator) (*obs.HDR, load.Stats) {
	h := &obs.HDR{}
	var st load.Stats
	for _, g := range gens {
		h.Merge(g.Latency())
		s := g.Stats()
		st.Submitted += s.Submitted
		st.Completed += s.Completed
		st.Dropped += s.Dropped
		st.Breaches += s.Breaches
	}
	return h, st
}
