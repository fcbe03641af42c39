package ha_test

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/core"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

// Per-machine migration state — armed dumps, dump holds, page stores and
// migd's transaction table — lives on the machine or its processes, so a
// dropped cluster takes all of it with it and independent clusters share
// nothing.

// migrateAndCheckpoint boots a two-host cluster and exercises every kind
// of per-machine migration state once: a classic migration transaction
// (a dump hold), a streaming migration (an armed stream dump and both
// hosts' page stores) and a guardian checkpoint. It then stops the
// cluster, leaving nothing running.
func migrateAndCheckpoint() error {
	c, err := cluster.NewSimple("alpha", "beta")
	if err != nil {
		return err
	}
	if err := c.InstallVM("/bin/counter", cluster.TestProgramSrc); err != nil {
		return err
	}
	if err := c.StartHA(ha.Config{Interval: sim.Second, CkptInterval: 2 * sim.Second}); err != nil {
		return err
	}
	var derr error
	c.Eng.Go("driver", func(tk *sim.Task) {
		defer killAll(c)
		// Counters block reading the console, so the cluster burns no CPU
		// between the steps.
		var procs [3]*kernel.Proc
		for i := range procs {
			if procs[i], derr = c.Spawn("alpha", c.Console("alpha"), cluster.DefaultUser, "/bin/counter"); derr != nil {
				return
			}
		}
		for i, extra := range [][]string{nil, {"-s", "-r", "1"}} {
			args := append([]string{"-p", strconv.Itoa(procs[i].PID), "-f", "alpha", "-t", "beta"}, extra...)
			mig, err := c.Spawn("alpha", nil, cluster.DefaultUser, "/bin/rmigrate", args...)
			if err != nil {
				derr = err
				return
			}
			if st := mig.AwaitExit(tk); st != 0 {
				derr = fmt.Errorf("rmigrate %v exited %d", args, st)
				return
			}
		}
		pid := procs[2].PID
		c.HA("alpha").Guard.Protect(pid, "beta")
		if awaitSeq(tk, c.HA("beta").Guard, "alpha", pid, 1, tk.Now()+sim.Time(30*sim.Second)) < 1 {
			derr = fmt.Errorf("no checkpoint of pid %d committed", pid)
		}
	})
	if err := c.Run(); err != nil {
		return err
	}
	return derr
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDroppedClustersAreCollected: the live heap after K clusters have
// run and been dropped stays flat between K=5 and K=40. A package-level
// table keyed by machine would keep every cluster resident (about 40 KiB
// each), growing the heap by well over a megabyte across the 35.
func TestDroppedClustersAreCollected(t *testing.T) {
	const warm, total = 5, 40
	var base uint64
	for k := 1; k <= total; k++ {
		if err := migrateAndCheckpoint(); err != nil {
			t.Fatalf("cluster %d: %v", k, err)
		}
		if k == warm {
			base = heapAfterGC()
		}
	}
	grown := int64(heapAfterGC()) - int64(base)
	t.Logf("heap grew %d B over %d dropped clusters", grown, total-warm)
	if limit := int64(total-warm) * 4 << 10; grown > limit {
		t.Fatalf("heap grew %d B over %d dropped clusters (limit %d B): dropped clusters stay reachable",
			grown, total-warm, limit)
	}
}

// TestParallelClustersShareNothing runs independent clusters through the
// same migrations and checkpoints on parallel goroutines; under -race it
// shows no state is shared between engines.
func TestParallelClustersShareNothing(t *testing.T) {
	const n = 3
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = migrateAndCheckpoint()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("cluster %d: %v", i, err)
		}
	}
}

// TestCheckpointWaitsForArmedHold: a guardian checkpoint that finds the
// victim's dump slot held by a classic migration transaction is refused
// and counted as a failed checkpoint; the victim keeps running and the
// hold still runs at its SIGDUMP. Once the transaction aborts, the next
// checkpoint commits.
func TestCheckpointWaitsForArmedHold(t *testing.T) {
	c := bootHA(t, ha.Config{Interval: sim.Second, CkptInterval: 2 * sim.Second}, "alpha", "beta")
	var victim *kernel.Proc
	var failures int64
	var seqWhileHeld, seqAfter int
	var runningWhileHeld, frozen bool
	c.Eng.Go("driver", func(tk *sim.Task) {
		defer killAll(c)
		var err error
		if victim, err = c.Spawn("alpha", nil, cluster.DefaultUser, "/bin/hog"); err != nil {
			t.Error(err)
			return
		}
		tk.Sleep(sim.Second)
		hold, e := core.ArmDumpHold(victim)
		if e != 0 {
			t.Errorf("ArmDumpHold: %v", e)
			return
		}
		g := c.HA("alpha").Guard
		g.Protect(victim.PID, "beta")
		tk.Sleep(7 * sim.Second)
		failures = c.Machine("alpha").Obs.Counter("ha.ckpt_failures").Value()
		seqWhileHeld = c.HA("beta").Guard.CommittedSeq("alpha", victim.PID)
		runningWhileHeld = victim.State == kernel.ProcRunning && victim.ArmedDump != nil
		c.Machine("alpha").Kill(cluster.DefaultUser, victim.PID, kernel.SIGDUMP)
		frozen = hold.AwaitFrozen(tk)
		core.ResolveDumpHold(hold, false)
		seqAfter = awaitSeq(tk, c.HA("beta").Guard, "alpha", victim.PID, 1, tk.Now()+sim.Time(30*sim.Second))
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if failures == 0 || seqWhileHeld != 0 {
		t.Fatalf("while the hold was armed: %d checkpoint failures, committed seq %d; want refusals and no commit", failures, seqWhileHeld)
	}
	if !runningWhileHeld {
		t.Fatal("the refused checkpoint disturbed the victim or its hold")
	}
	if !frozen {
		t.Fatal("the hold did not run at SIGDUMP")
	}
	if seqAfter < 1 {
		t.Fatal("no checkpoint committed after the hold was resolved")
	}
}
