package main

import (
	"fmt"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// dedup-drain: identical protected replicas bin-packed on one host are
// mass-drained in waves to one destination, which is then crashed and
// healed from the buddy guardians' checkpoints. After the first wave the
// destination's page store holds every page, so later waves ship
// speculative refs; there is no client load.

const dedupPath = "/bin/replsvc"

type dedupShape struct {
	Hosts, Replicas, DataKiB int
}

var (
	dedupFull = dedupShape{Hosts: 60, Replicas: 16, DataKiB: 256}
	dedupTiny = dedupShape{Hosts: 12, Replicas: 4, DataKiB: 64}
)

// The measured phases are fixed windows, longer than any seed needs, so
// every seed simulates the same span.
const (
	dedupCkpt   = 15 * sim.Second
	dedupDrain  = 150 * sim.Second
	dedupSettle = 100 * sim.Second
	dedupHeal   = 100 * sim.Second
)

// dedupSrc is the replica program: fill the working set from an LCG
// started at fill (the same in every replica, and incompressible), then
// every one-second beat rewrite one page with its own content — dirty
// bits without new content.
func dedupSrc(dataKiB int, fill uint32) string {
	return fmt.Sprintf(`
        movi r5, %d
        movi r6, 1103515245
        movi r2, ws
init:   mul  r5, r6
        addi r5, 12345
        str  r2, r5
        addi r2, 4
        cmpi r2, wsend
        jlt  init
loop:   ld   r4, beat
        addi r4, 1
        st   r4, beat
        mov  r3, r4
        movi r7, %d
        mod  r3, r7
        movi r7, 1024
        mul  r3, r7
        movi r2, ws
        add  r2, r3
        ldr  r7, r2
        str  r2, r7
        movi r0, 1
        sys  sleep
        jmp  loop
        .data
beat:   .word 0
ws:     .space %d
wsend:  .word 0
`, fill, dataKiB, dataKiB<<10)
}

func runDedup(r *rep, seed uint64, o options) (*repResult, error) {
	z := dedupFull
	if o.tiny {
		z = dedupTiny
	}
	// Spawning the packed replicas serializes their image loads and fills
	// on one CPU; the controller's patience has to cover that storm.
	execStorm := sim.Duration(z.Replicas*z.DataKiB)*5*sim.Millisecond + sim.Duration(z.Replicas)*100*sim.Millisecond

	var c *cluster.Cluster
	var ctl *controller.Controller
	err := r.run("build", false, func() (err error) {
		if c, err = bootCluster(r, z.Hosts, seed); err != nil {
			return err
		}
		if err := r.call("cluster", "InstallVM", func() error {
			return c.InstallVM(dedupPath, dedupSrc(z.DataKiB, lcgSeed(seed)))
		}); err != nil {
			return err
		}
		if err := r.call("cluster", "StartHA", func() error {
			return c.StartHA(ha.Config{Interval: sim.Second, CkptInterval: dedupCkpt})
		}); err != nil {
			return err
		}
		return r.call("cluster", "StartController", func() (err error) {
			ctl, err = c.StartController("h000", controller.Config{
				Period: ctlPeriod, MaxActionsPerRound: z.Replicas + 8, DrainWave: 2,
				SpawnGrace:    execStorm + 10*sim.Second,
				RecoveryGrace: sim.Duration(z.DataKiB)*20*sim.Millisecond + 30*sim.Second,
			})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	ctr := func(name string) int64 { return c.Obs.Scope("h000").Counter(name).Value() }
	if err := r.run("warmup", false, func() error { return r.step(10 * sim.Second) }); err != nil {
		return nil, err
	}
	app := newReplicaSet(c, ctl, "repl", z.Replicas)
	var pack string
	if err := r.run("rollout", false, func() (err error) {
		pack, err = rollout(r, app, controller.AppSpec{
			Name: "repl", Path: dedupPath, Replicas: z.Replicas,
			Policy: "binpack", MaxPerHost: z.Replicas, Protect: true, Avoid: []string{"h000"},
		}, 2*execStorm+60*sim.Second)
		if err != nil {
			return err
		}
		// The guardians' first full checkpoints spool every image off the
		// packed host before the drain starts.
		if err := r.step(sim.Duration(z.Replicas*z.DataKiB)*3*sim.Millisecond + 3*dedupCkpt); err != nil {
			return err
		}
		if got := ctr("controller.protects"); got < int64(z.Replicas) {
			return gateErr("only %d guardian protections after rollout, want %d", got, z.Replicas)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var dest string
	prot0 := ctr("controller.protects")
	if err := r.run("drain", true, func() error {
		if err := r.call("cluster", "DrainHost", func() error { return c.DrainHost(pack) }); err != nil {
			return err
		}
		if _, err := r.within("drain", ctlPeriod, dedupDrain, func() bool { return app.drained(pack) }); err != nil {
			return err
		}
		return r.checkErr(func() error {
			st, _ := ctl.DrainStatus(pack)
			if st.Failed != 0 || st.Moved != z.Replicas {
				return gateErr("drain of %s moved %d of %d replicas, %d failed", pack, st.Moved, z.Replicas, st.Failed)
			}
			if dest = app.packed(); dest == "" || dest == pack {
				return gateErr("drain did not repack the replicas on one host")
			}
			return app.oneCopyEach("drain")
		})
	}); err != nil {
		return nil, err
	}

	// A moved replica is re-protected only once sighted on its new host,
	// and the crash below is survivable only once every protection's
	// first checkpoint has committed at its buddy.
	if err := r.run("settle", true, func() error {
		_, err := r.within("re-protect", ctlPeriod, dedupSettle, func() bool {
			if ctr("controller.protects")-prot0 < int64(z.Replicas) {
				return false
			}
			for _, hp := range app.bindings() {
				committed := false
				for _, name := range c.Names() {
					if name != hp.host && c.HA(name).Guard.CommittedSeq(hp.host, hp.pid) >= 1 {
						committed = true
						break
					}
				}
				if !committed {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		return r.checkErr(func() error { return app.oneCopyEach("settle") })
	}); err != nil {
		return nil, err
	}

	var healS float64
	adopt0, resp0 := ctr("controller.adoptions"), ctr("controller.respawns")
	if err := r.run("heal", true, func() error {
		if err := r.call("cluster", "Crash", func() error { c.Crash(dest); return nil }); err != nil {
			return err
		}
		// Healed means every replica rebound off the dead host, not just
		// a converged census: restores can refill the kernels before the
		// controller has suspected the host.
		d, err := r.within("heal", ctlPeriod, dedupHeal, func() bool {
			if !app.converged() {
				return false
			}
			for _, hp := range app.bindings() {
				if hp.host == dest {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		healS = seconds(d)
		return r.checkErr(func() error { return app.oneCopyEach("heal") })
	}); err != nil {
		return nil, err
	}

	var res *repResult
	err = r.run("harvest", false, func() (err error) {
		r.bench(func() {
			st, _ := ctl.DrainStatus(pack)
			adoptions, respawns := ctr("controller.adoptions")-adopt0, ctr("controller.respawns")-resp0
			if adoptions != int64(z.Replicas) || respawns != 0 {
				err = gateErr("crash of %s: %d replicas adopted from guardians, %d respawned; want %d and 0",
					dest, adoptions, respawns, z.Replicas)
				return
			}
			fp50, fmax := freezes(c.Obs.Tracer)
			attempted := int64(st.Moved+st.Failed) + adoptions + respawns
			failed := int64(st.Failed) + respawns
			res = r.result(map[string]float64{
				"freeze_p50_ms":    fp50,
				"freeze_max_ms":    fmax,
				"drain_makespan_s": seconds(st.Makespan),
				"heal_s":           healS,
				"fail_frac":        float64(failed) / float64(attempted),
			}, map[string]float64{"vm.user_cpu_s": userCPU(c)}, attempted, failed)
		})
		return err
	})
	return res, err
}
