package cluster_test

import (
	"fmt"
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// slowExecSrc is a sleeper with a data segment big enough that its exec
// spends seconds on the disk read and the exec copy.
func slowExecSrc(dataBytes int) string {
	return fmt.Sprintf(`
loop:   movi r0, 1
        sys  sleep
        jmp  loop
        .data
big:    .space %d
`, dataBytes)
}

// TestCensusListsSpawnMidExec: a spawned replica is in its host's census
// from the spawn on, even while its exec is still loading the image. The
// exec here outlasts SpawnGrace plus a period, so every census the
// controller asks for inside the grace is answered mid-exec. If those
// answers omitted the process, the controller would convict the live
// replica at SpawnGrace and spawn a second one. The replica is protected,
// and the controller protects it as soon as it is sighted, mid-exec: the
// guardian must wait for the image rather than take the loading process
// for one that ended and drop the protection.
func TestCensusListsSpawnMidExec(t *testing.T) {
	c, err := cluster.NewSimple("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.Seed(1)
	if err := c.InstallVM("/bin/slow", slowExecSrc(2<<20)); err != nil {
		t.Fatal(err)
	}
	if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	ctlCfg := controller.Config{Period: sim.Second}
	ctl, err := c.StartController("a", ctlCfg)
	if err != nil {
		t.Fatal(err)
	}
	spawnGrace := 3 * ctlCfg.Period // the controller's default

	var midExecCensus, converged bool
	var pid int
	c.Eng.Go("driver", func(tk *sim.Task) {
		defer func() {
			c.StopController()
			c.StopHA()
		}()
		tk.Sleep(3 * sim.Second)
		if err := ctl.Submit(controller.AppSpec{
			Name: "slow", Path: "/bin/slow", Replicas: 1, Hosts: []string{"b"}, Protect: true,
		}); err != nil {
			t.Error(err)
			return
		}
		deadline := tk.Now() + sim.Time(40*sim.Second)
		for tk.Now() < deadline {
			tk.Sleep(sim.Second / 4)
			st, _ := ctl.App("slow")
			if len(st.Replicas) != 1 {
				continue
			}
			pid = st.Replicas[0].PID
			if p, found := c.Machine("b").FindProc(pid); found && p.VM == nil {
				procs, err := c.HA("a").Census(tk, "b", nil)
				for _, ps := range procs {
					midExecCensus = midExecCensus || err == nil && ps.PID == pid
				}
			}
			if st.Converged() && !converged {
				converged = true
				deadline = tk.Now() + sim.Time(30*sim.Second) // room for checkpoints
			}
		}
	})
	if err := c.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	reg := c.Obs.Scope("a")
	if lost := reg.Counter("controller.replicas_lost").Value(); lost != 0 {
		t.Fatalf("controller convicted %d live replica(s) mid-exec (SpawnGrace %v)", lost, spawnGrace)
	}
	if spawns := reg.Counter("controller.spawns").Value(); spawns != 1 {
		t.Fatalf("controller spawned %d replicas, want 1", spawns)
	}
	if !converged {
		t.Fatalf("rollout of one slow-exec replica did not converge")
	}
	if !midExecCensus {
		t.Fatalf("no census the controller host asked for listed the replica while its exec was loading")
	}
	if reg.Counter("controller.protects").Value() != 1 {
		t.Fatalf("controller protected the replica %d times, want 1", reg.Counter("controller.protects").Value())
	}
	if seq := c.HA("a").Guard.CommittedSeq("b", pid); seq < 1 {
		t.Fatalf("guardian committed no checkpoint of the replica protected mid-exec")
	}
}

// TestCensusLossConvictsNothing: every census query from the controller
// host to the replicas' hosts is dropped for ten periods. A query that
// goes unanswered is no evidence, so no replica is convicted or
// respawned, and the rollout stays converged once answers flow again.
func TestCensusLossConvictsNothing(t *testing.T) {
	c, err := cluster.NewSimple("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.Seed(1)
	if err := c.InstallVM("/bin/slow", slowExecSrc(4096)); err != nil {
		t.Fatal(err)
	}
	if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	period := sim.Second
	ctl, err := c.StartController("a", controller.Config{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	reg := c.Obs.Scope("a")
	var before, during, after bool
	var spawns int64
	c.Eng.Go("driver", func(tk *sim.Task) {
		defer func() {
			c.StopController()
			c.StopHA()
		}()
		tk.Sleep(3 * sim.Second)
		if err := ctl.Submit(controller.AppSpec{
			Name: "slow", Path: "/bin/slow", Replicas: 2, AntiAffinity: true, Avoid: []string{"a"},
		}); err != nil {
			t.Error(err)
			return
		}
		tk.Sleep(10 * period)
		before = ctl.Converged()
		spawns = reg.Counter("controller.spawns").Value()
		for _, h := range []string{"b", "c"} {
			c.Net.FaultLinkPort("a", h, ha.CensusPort, netsim.FaultSpec{Drop: 1})
		}
		tk.Sleep(10 * period)
		during = ctl.Converged()
		c.Net.ClearFaults()
		tk.Sleep(3 * period)
		after = ctl.Converged()
	})
	if err := c.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !before {
		t.Fatal("rollout did not converge before the fault")
	}
	if lost := reg.Counter("controller.replicas_lost").Value(); lost != 0 {
		t.Fatalf("controller convicted %d replica(s) on unanswered census queries", lost)
	}
	if got := reg.Counter("controller.spawns").Value(); got != spawns || spawns != 2 {
		t.Fatalf("spawns %d before the fault, %d after; want 2 and no more", spawns, got)
	}
	if !during || !after {
		t.Fatalf("controller left convergence: during the fault %v, after it %v", during, after)
	}
}
