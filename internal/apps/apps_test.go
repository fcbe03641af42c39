package apps_test

import (
	"fmt"
	"strings"
	"testing"

	"procmig/internal/apps"
	"procmig/internal/cluster"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

var user = cluster.DefaultUser

func boot(t *testing.T, names ...string) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewSimple(names...)
	if err != nil {
		t.Fatal(err)
	}
	for prog, src := range map[string]string{
		"/bin/counter": cluster.TestProgramSrc,
		"/bin/hog":     cluster.FiniteHogSrc,
	} {
		if err := c.InstallVM(prog, src); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func run(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAndRestore: snapshot a counter twice, let it run on, then
// kill it and rewind to checkpoint 1 — counters AND the output file
// contents must match the checkpoint, not the later state.
func TestCheckpointAndRestore(t *testing.T) {
	c := boot(t, "brick")
	term := c.Console("brick")
	var p *kernel.Proc
	var ckptStatus, restoreStatus int
	c.Eng.Go("driver", func(tk *sim.Task) {
		p, _ = c.Spawn("brick", term, user, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		term.Type("one\n") // counters at 2 after this

		// ckpt takes a snapshot 5s in, restarts it, then another at 10s.
		cp, _ := c.Spawn("brick", term, user, "/bin/ckpt",
			"-p", fmt.Sprint(p.PID), "-i", "5", "-n", "2", "-d", "/home/snaps")
		// While ckpt is sleeping before snapshot 2, advance the program.
		tk.Sleep(7 * sim.Second)
		term.Type("two\n") // counters at 3; this lands after snapshot 1
		ckptStatus = cp.AwaitExit(tk)

		// Let the current incarnation advance past the checkpoints.
		tk.Sleep(sim.Second)
		term.Type("three\n")
		tk.Sleep(2 * sim.Second)

		// Kill whatever incarnation is running now ("system crash").
		for _, pi := range c.Machine("brick").PS() {
			if strings.Contains(pi.Cmd, "a.out") {
				c.Machine("brick").Kill(kernel.Creds{}, pi.PID, kernel.SIGKILL)
			}
		}
		tk.Sleep(sim.Second)

		// Rewind to checkpoint 1 (taken after "one", before "two").
		rs, _ := c.Spawn("brick", term, user, "/bin/ckptrestore",
			"-d", "/home/snaps", "-n", "1")
		restoreStatus = rs.AwaitExit(tk)
		tk.Sleep(2 * sim.Second)
		term.Type("replay\n")
		tk.Sleep(2 * sim.Second)
		term.TypeEOF()
	})
	run(t, c)
	if ckptStatus != 0 {
		t.Fatalf("ckpt exit = %d (tty: %q)", ckptStatus, term.Output())
	}
	if restoreStatus != 0 {
		t.Fatalf("ckptrestore exit = %d (tty: %q)", restoreStatus, term.Output())
	}
	// After restoring checkpoint 1 the program's next iteration prints
	// R3 D3 S3 (it had seen "one" and the blocked read restarts).
	if !strings.Contains(term.Output(), "R3 D3 S3\n") {
		t.Fatalf("terminal = %q: restored counters wrong", term.Output())
	}
	// The output file was rolled back to the checkpoint's copy ("one\n")
	// and then got "replay\n" — "two"/"three" must be gone.
	data, err := c.Machine("brick").NS().ReadFile("/home/out")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "one\nreplay\n" {
		t.Fatalf("output file = %q, want checkpoint view + replay", data)
	}
}

// TestMigrateProcHelper: the kernel-level orchestration helper works and
// returns the new pid.
func TestMigrateProcHelper(t *testing.T) {
	c := boot(t, "brick", "schooner")
	var newPid int
	var err error
	var p *kernel.Proc
	c.Eng.Go("driver", func(tk *sim.Task) {
		p, _ = c.Spawn("brick", nil, user, "/bin/hog")
		tk.Sleep(2 * sim.Second)
		newPid, err = apps.MigrateProc(tk, c.Machine("brick"), c.Machine("schooner"), p.PID)
	})
	run(t, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Machine("schooner").FindProc(newPid); ok {
		// Fine: process may still be running when checked... but the
		// engine ran to completion so the hog finished on schooner.
		t.Log("hog still present")
	}
	if len(c.Machine("brick").Procs()) != 0 {
		t.Fatal("process left behind on brick")
	}
}

// TestBalancerSpreadsHogs: four hogs start on one machine of a 2-machine
// cluster; the balancer moves work until both machines are busy, and the
// makespan beats the unbalanced run.
func TestBalancerSpreadsHogs(t *testing.T) {
	makespan := func(balance bool) sim.Duration {
		c := boot(t, "m1", "m2")
		if balance {
			if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
				t.Fatal(err)
			}
		}
		var hogs []*kernel.Proc
		var done sim.Time
		c.Eng.Go("driver", func(tk *sim.Task) {
			for i := 0; i < 4; i++ {
				p, _ := c.Spawn("m1", nil, user, "/bin/hog")
				hogs = append(hogs, p)
			}
			// A migrated hog continues as a NEW process, so completion is
			// "no process running anywhere".
			allDone := func() bool {
				for _, name := range c.Names() {
					for _, p := range c.Machine(name).Procs() {
						if p.State == kernel.ProcRunning {
							return false
						}
					}
				}
				return true
			}
			if balance {
				// The balancer runs on the idle machine and sees the cluster
				// only through its heartbeat view.
				b := &apps.Balancer{
					Host:   c.NetHost("m2"),
					View:   c.HA("m2"),
					Period: 5 * sim.Second,
					MinAge: 2 * sim.Second,
				}
				b.Run(tk, allDone)
				if len(b.Events) == 0 {
					t.Error("balancer never migrated anything")
				}
				for _, ev := range b.Failed {
					t.Logf("failed attempt: %+v", ev)
				}
				c.StopHA()
			} else {
				for _, h := range hogs {
					h.AwaitExit(tk)
				}
			}
			done = tk.Now()
		})
		run(t, c)
		return sim.Duration(done)
	}
	unbalanced := makespan(false)
	balanced := makespan(true)
	if balanced >= unbalanced {
		t.Fatalf("balanced makespan %v not better than unbalanced %v", balanced, unbalanced)
	}
	// Perfect balance would halve it; with migration overhead expect at
	// least a 25% improvement.
	if float64(balanced) > 0.75*float64(unbalanced) {
		t.Fatalf("balanced %v vs unbalanced %v: improvement too small", balanced, unbalanced)
	}
}

// TestNightScheduler: hogs live on the home machine by day, spread at
// night, and come home at daybreak.
func TestNightScheduler(t *testing.T) {
	c := boot(t, "home", "w1", "w2")
	// A long hog so jobs survive the whole scenario.
	if err := c.InstallVM("/bin/longhog", cluster.HogSrc); err != nil {
		t.Fatal(err)
	}
	if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	var nightPlacement, dayPlacement map[string]int
	c.Eng.Go("driver", func(tk *sim.Task) {
		ns := &apps.NightScheduler{
			Host:     c.NetHost("home"),
			View:     c.HA("home"),
			Home:     "home",
			Machines: []string{"home", "w1", "w2"},
		}
		var pids []int
		for i := 0; i < 3; i++ {
			p, _ := c.Spawn("home", nil, user, "/bin/longhog")
			ns.Add("home", p.PID)
			pids = append(pids, p.PID)
		}
		tk.Sleep(10 * sim.Second)
		ns.Nightfall(tk)
		tk.Sleep(5 * sim.Second)
		nightPlacement = ns.Placement(tk)
		ns.Daybreak(tk)
		tk.Sleep(5 * sim.Second)
		dayPlacement = ns.Placement(tk)
		// Clean up the infinite hogs.
		c.StopHA()
		for _, name := range c.Names() {
			m := c.Machine(name)
			for _, pi := range m.PS() {
				m.Kill(kernel.Creds{}, pi.PID, kernel.SIGKILL)
			}
		}
	})
	run(t, c)
	if nightPlacement["home"] != 1 || nightPlacement["w1"] != 1 || nightPlacement["w2"] != 1 {
		t.Fatalf("night placement = %v, want one hog per machine", nightPlacement)
	}
	if dayPlacement["home"] != 3 {
		t.Fatalf("day placement = %v, want all hogs home", dayPlacement)
	}
}

// TestRshRunsRemoteCommand: basic rsh behaviour and its cost.
func TestRshRunsRemoteCommand(t *testing.T) {
	c := boot(t, "brick", "schooner")
	var status int
	var elapsed sim.Duration
	c.Eng.Go("driver", func(tk *sim.Task) {
		start := tk.Now()
		// Run dumpproc remotely against a nonexistent pid: it must run
		// over there and fail with its own exit status.
		p, _ := c.Spawn("brick", nil, user, "/bin/rsh", "schooner", "dumpproc", "-p", "99999")
		status = p.AwaitExit(tk)
		elapsed = sim.Duration(tk.Now() - start)
	})
	run(t, c)
	if status != 1 {
		t.Fatalf("remote dumpproc exit = %d, want 1", status)
	}
	if elapsed < apps.RshConnectCost {
		t.Fatalf("rsh took %v, less than its connection cost %v", elapsed, apps.RshConnectCost)
	}
}
