package experiments

import (
	"fmt"

	"procmig/internal/apps"
	"procmig/internal/cluster"
	"procmig/internal/core"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

// --- A1: dynamic vs fixed pathname storage ----------------------------------

// A1Result compares the kernel memory consumed by the §5.1 pathname
// tracking under dynamic allocation versus MAXPATHLEN fixed buffers (the
// design the paper rejects), for a machine with several processes holding
// a realistic mix of open files.
type A1Result struct {
	Files        int
	DynamicPeak  int64 // bytes
	FixedPeak    int64 // bytes
	MeanNameLen  float64
	SavingFactor float64 // fixed/dynamic
}

// A1NameStorage opens a realistic set of files (short /etc names through
// long /n/<host>/u2/... home paths) on both kernel variants and reports
// the peak kernel memory held by names.
func A1NameStorage() (*A1Result, error) {
	paths := []string{
		"/etc/passwd", "/etc/motd", "/usr/tmp/t0", "/usr/tmp/sortXYZ",
		"/n/brador/u2/someuser/projects/simulator/main.c",
		"/n/brador/u2/someuser/projects/simulator/output/results.dat",
		"/n/brick/home/mail/inbox", "/usr/tmp/ed.hup",
		"/n/brador/u2/otheruser/thesis/chapters/chapter-three.tr",
		"/usr/tmp/vi.recover.001",
	}
	res := &A1Result{Files: len(paths)}
	var totalLen int
	for _, p := range paths {
		totalLen += len(p)
	}
	res.MeanNameLen = float64(totalLen) / float64(len(paths))

	for _, fixed := range []bool{false, true} {
		c, err := boot(kernel.Config{TrackNames: true, FixedNameStorage: fixed}, "brick")
		if err != nil {
			return nil, err
		}
		if err := c.InstallHosted("a1", func(sys *kernel.Sys, args []string) int {
			var fds []int
			for _, p := range paths {
				fd, e := sys.Creat(p, 0o644)
				if e != 0 {
					return 1
				}
				fds = append(fds, fd)
			}
			// Peak is captured while everything is open.
			for _, fd := range fds {
				sys.Close(fd)
			}
			return 0
		}); err != nil {
			return nil, err
		}
		// The deep directories must exist.
		ns := c.Machine("brick").NS()
		for _, d := range []string{
			"/n/brador/u2/someuser/projects/simulator/output",
			"/n/brador/u2/otheruser/thesis/chapters",
			"/n/brick/home/mail",
		} {
			if err := ns.MkdirAll(d, 0o777, 0, 0); err != nil {
				return nil, err
			}
		}
		var status int
		c.Eng.Go("driver", func(tk *sim.Task) {
			// Run as root: the mix includes files under root-owned /etc.
			p, _ := c.Spawn("brick", nil, kernel.Creds{}, "/bin/a1")
			status = p.AwaitExit(tk)
		})
		if err := c.Run(); err != nil {
			return nil, err
		}
		if status != 0 {
			return nil, fmt.Errorf("a1 program exited %d", status)
		}
		peak := c.Machine("brick").NameBytesPeak
		if fixed {
			res.FixedPeak = peak
		} else {
			res.DynamicPeak = peak
		}
	}
	res.SavingFactor = float64(res.FixedPeak) / float64(res.DynamicPeak)
	return res, nil
}

// --- A2: rsh-based migrate vs the migd daemon --------------------------------

// A2Result compares the paper's rsh-glued migrate with the §6.4 daemon
// proposal on the worst (both-remote) Figure 4 case.
type A2Result struct {
	RshMigrate  sim.Duration
	FastMigrate sim.Duration
	Speedup     float64
}

// A2Migd measures both migrate flavours on the R→R scenario.
func A2Migd() (*A2Result, error) {
	res := &A2Result{}
	for _, prog := range []string{"migrate", "fmigrate"} {
		d, status, err := measureMigrateProg(prog, "alpha", "beta", "gamma")
		if err != nil {
			return nil, err
		}
		if status != 0 {
			return nil, fmt.Errorf("%s exited %d", prog, status)
		}
		if prog == "migrate" {
			res.RshMigrate = d
		} else {
			res.FastMigrate = d
		}
	}
	res.Speedup = float64(res.RshMigrate) / float64(res.FastMigrate)
	return res, nil
}

func measureMigrateProg(prog, on, from, to string) (sim.Duration, int, error) {
	c, err := boot(kernel.Config{TrackNames: true}, "alpha", "beta", "gamma")
	if err != nil {
		return 0, 0, err
	}
	var elapsed sim.Duration
	var status int
	c.Eng.Go("driver", func(tk *sim.Task) {
		v, _ := c.Spawn(from, nil, user, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		t0 := tk.Now()
		mig, _ := c.Spawn(on, nil, user, "/bin/"+prog,
			"-p", fmt.Sprint(v.PID), "-f", from, "-t", to)
		status = mig.AwaitExit(tk)
		elapsed = sim.Duration(tk.Now() - t0)
		for _, name := range c.Names() {
			for _, p := range c.Machine(name).Procs() {
				c.Machine(name).Kill(kernel.Creds{}, p.PID, kernel.SIGKILL)
			}
		}
	})
	if err := c.Run(); err != nil {
		return 0, 0, err
	}
	return elapsed, status, nil
}

// --- A3: dumpproc poll interval ----------------------------------------------

// A3Point is one poll-policy measurement of the Figure 2 dumpproc run.
type A3Point struct {
	Label    string
	Interval sim.Duration
	Backoff  bool
	Real     sim.Duration // dumpproc real time
	CPU      sim.Duration // dumpproc own CPU
}

// A3PollInterval sweeps dumpproc's sleep policy. The paper's 1 s sleep is
// most of dumpproc's real-time cost; shorter polls close the CPU/real gap
// at the price of more wakeups.
func A3PollInterval() ([]*A3Point, error) {
	points := []*A3Point{
		{Label: "250ms", Interval: 250 * sim.Millisecond},
		{Label: "500ms", Interval: 500 * sim.Millisecond},
		{Label: "1s (paper)", Interval: sim.Second},
		{Label: "2s", Interval: 2 * sim.Second},
		{Label: "250ms+backoff", Interval: 250 * sim.Millisecond, Backoff: true},
	}
	defer func() {
		core.PollInterval = sim.Second
		core.PollBackoff = false
	}()
	for _, pt := range points {
		core.PollInterval = pt.Interval
		core.PollBackoff = pt.Backoff

		c, err := boot(kernel.Config{TrackNames: true}, "brick")
		if err != nil {
			return nil, err
		}
		var fail error
		c.Eng.Go("driver", func(tk *sim.Task) {
			v, _ := c.Spawn("brick", nil, user, "/bin/counter")
			tk.Sleep(2 * sim.Second)
			t0 := tk.Now()
			dp, _ := c.Spawn("brick", nil, user, "/bin/dumpproc", "-p", fmt.Sprint(v.PID))
			if st := dp.AwaitExit(tk); st != 0 {
				fail = fmt.Errorf("dumpproc exited %d", st)
			}
			pt.Real = sim.Duration(tk.Now() - t0)
			pt.CPU = cpuOf(dp)
		})
		if err := c.Run(); err != nil {
			return nil, err
		}
		if fail != nil {
			return nil, fail
		}
	}
	return points, nil
}

// --- A4: checkpoint interval vs overhead --------------------------------------

// A4Point is one checkpoint-interval measurement.
type A4Point struct {
	Label     string
	Snapshots int
	Plain     sim.Duration // job runtime without checkpointing
	Ckpted    sim.Duration // runtime with periodic checkpoints
	Overhead  float64      // (ckpted-plain)/plain
}

// longHogSrc runs ~40M instructions (≈40 s on a Sun-2) and exits.
const longHogSrc = `
start:  movi r3, 0
outer:  movi r1, 0
inner:  addi r1, 1
        cmpi r1, 10000
        jlt  inner
        addi r3, 1
        cmpi r3, 1300
        jlt  outer
        movi r0, 0
        sys  exit
`

// A4Checkpoint measures the runtime inflation of a long CPU job under the
// §8 checkpointing application at different snapshot counts.
func A4Checkpoint() ([]*A4Point, error) {
	run := func(snapshots, intervalSec int) (sim.Duration, error) {
		c, err := boot(kernel.Config{TrackNames: true}, "brick")
		if err != nil {
			return 0, err
		}
		if err := c.InstallVM("/bin/longhog", longHogSrc); err != nil {
			return 0, err
		}
		var done sim.Time
		var fail error
		c.Eng.Go("driver", func(tk *sim.Task) {
			hog, _ := c.Spawn("brick", nil, user, "/bin/longhog")
			if snapshots > 0 {
				cp, _ := c.Spawn("brick", nil, user, "/bin/ckpt",
					"-p", fmt.Sprint(hog.PID), "-i", fmt.Sprint(intervalSec),
					"-n", fmt.Sprint(snapshots), "-d", "/home/snaps")
				if st := cp.AwaitExit(tk); st != 0 {
					fail = fmt.Errorf("ckpt exited %d", st)
					return
				}
				// The job now runs as ckpt's orphaned final incarnation.
				for {
					running := false
					for _, p := range c.Machine("brick").Procs() {
						if p.State == kernel.ProcRunning && p.VM != nil {
							running = true
							p.AwaitExit(tk)
						}
					}
					if !running {
						break
					}
				}
			} else {
				hog.AwaitExit(tk)
			}
			done = tk.Now()
		})
		if err := c.Run(); err != nil {
			return 0, err
		}
		if fail != nil {
			return 0, fail
		}
		return sim.Duration(done), nil
	}

	plain, err := run(0, 0)
	if err != nil {
		return nil, err
	}
	var out []*A4Point
	for _, cfg := range []struct {
		label     string
		snapshots int
		interval  int
	}{
		{"2 snapshots / 15s", 2, 15},
		{"4 snapshots / 8s", 4, 8},
	} {
		d, err := run(cfg.snapshots, cfg.interval)
		if err != nil {
			return nil, err
		}
		out = append(out, &A4Point{
			Label:     cfg.label,
			Snapshots: cfg.snapshots,
			Plain:     plain,
			Ckpted:    d,
			Overhead:  float64(d-plain) / float64(plain),
		})
	}
	return out, nil
}

// --- A5: load balancing makespan ----------------------------------------------

// A5Result compares the makespan of a batch of CPU hogs with and without
// the §8 load balancer on a two-machine network.
type A5Result struct {
	Jobs        int
	Unbalanced  sim.Duration
	Balanced    sim.Duration
	Migrations  int
	Improvement float64 // 1 - balanced/unbalanced
}

// A5LoadBalance runs four finite hogs on one of two machines.
func A5LoadBalance() (*A5Result, error) {
	res := &A5Result{Jobs: 4}
	for _, balance := range []bool{false, true} {
		c, err := boot(kernel.Config{TrackNames: true}, "m1", "m2")
		if err != nil {
			return nil, err
		}
		if err := c.InstallVM("/bin/hog", cluster.FiniteHogSrc); err != nil {
			return nil, err
		}
		if balance {
			if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
				return nil, err
			}
		}
		var done sim.Time
		c.Eng.Go("driver", func(tk *sim.Task) {
			var hogs []*kernel.Proc
			for i := 0; i < res.Jobs; i++ {
				p, _ := c.Spawn("m1", nil, user, "/bin/hog")
				hogs = append(hogs, p)
			}
			// A migrated hog continues as a NEW process, so completion is
			// "no process running anywhere", not "the original handles
			// exited".
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
				// The balancer knows the cluster only through the heartbeat
				// view and moves jobs through the source's migd.
				b := &apps.Balancer{
					Host:   c.NetHost("m2"),
					View:   c.HA("m2"),
					Period: 5 * sim.Second,
					MinAge: 2 * sim.Second,
				}
				b.Run(tk, allDone)
				res.Migrations = len(b.Events)
				c.StopHA()
			} else {
				for _, h := range hogs {
					h.AwaitExit(tk)
				}
			}
			done = tk.Now()
		})
		if err := c.Run(); err != nil {
			return nil, err
		}
		if balance {
			res.Balanced = sim.Duration(done)
		} else {
			res.Unbalanced = sim.Duration(done)
		}
	}
	res.Improvement = 1 - float64(res.Balanced)/float64(res.Unbalanced)
	return res, nil
}
