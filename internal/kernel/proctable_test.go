package kernel

import (
	"fmt"
	"slices"
	"testing"

	"procmig/internal/errno"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// pids lists the pids Procs reports, in its order.
func pids(m *Machine) []int {
	var out []int
	for _, p := range m.Procs() {
		out = append(out, p.PID)
	}
	return out
}

// installSleeper installs /bin/sleeper, which sleeps for a minute.
func installSleeper(t *testing.T, w *testWorld) {
	t.Helper()
	w.installHosted(t, "/bin/sleeper", "sleeper", func(sys *Sys, args []string) int {
		sys.Sleep(60 * sim.Second)
		return 0
	})
}

func TestProcTableFromRaisedPidCounter(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	installSleeper(t, w)
	w.m.SetNextPID(200_001)
	for i := 0; i < 3; i++ {
		w.spawn(t, "/bin/sleeper")
	}
	if got, want := pids(w.m), []int{200_001, 200_002, 200_003}; !slices.Equal(got, want) {
		t.Fatalf("Procs = %v, want %v", got, want)
	}

	// Reaping the middle one keeps the rest in pid order.
	if e := w.m.Kill(Creds{}, 200_002, SIGKILL); e != 0 {
		t.Fatalf("kill: %v", e)
	}
	if err := w.eng.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got, want := pids(w.m), []int{200_001, 200_003}; !slices.Equal(got, want) {
		t.Fatalf("after reap Procs = %v, want %v", got, want)
	}
	if _, ok := w.m.FindProc(200_002); ok {
		t.Fatal("FindProc found the reaped pid")
	}
	for _, pid := range []int{200_001, 200_003} {
		if p, ok := w.m.FindProc(pid); !ok || p.PID != pid {
			t.Fatalf("FindProc(%d) = %v, %v", pid, p, ok)
		}
	}
}

func TestFindProcNeverAllocatedPid(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	installSleeper(t, w)
	w.m.SetNextPID(100)
	w.spawn(t, "/bin/sleeper")
	for _, pid := range []int{0, 1, 99, 101, 1_000_000} {
		if _, ok := w.m.FindProc(pid); ok {
			t.Fatalf("FindProc(%d) found a pid never handed out", pid)
		}
	}
}

func TestZombieListedUntilReaped(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/quick", "quick", func(sys *Sys, args []string) int { return 7 })
	var child int
	var zombie, reaped bool
	w.installHosted(t, "/bin/parent", "parent", func(sys *Sys, args []string) int {
		child, _ = sys.Spawn("/bin/quick", nil, nil)
		sys.Sleep(sim.Second) // the child exits meanwhile
		p, ok := w.m.FindProc(child)
		zombie = ok && p.State == ProcZombie && slices.Equal(pids(w.m), []int{sys.Getrealpid(), child})
		sys.Wait()
		_, ok = w.m.FindProc(child)
		reaped = !ok && slices.Equal(pids(w.m), []int{sys.Getrealpid()})
		return 0
	})
	w.spawn(t, "/bin/parent")
	w.run(t)
	if !zombie {
		t.Fatal("exited child was not listed as a zombie before wait")
	}
	if !reaped {
		t.Fatal("wait did not remove the zombie from the table")
	}
}

// TestWaitReapsLowestPidFirst: with two zombie children, wait(2) reaps
// the lower pid first, whichever exited first.
func TestWaitReapsLowestPidFirst(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/slow", "slow", func(sys *Sys, args []string) int {
		sys.Sleep(200 * sim.Millisecond)
		return 1
	})
	w.installHosted(t, "/bin/fast", "fast", func(sys *Sys, args []string) int { return 2 })
	var spawned, reaped [2]int
	var statuses [2]int
	var errs [2]errno.Errno
	w.installHosted(t, "/bin/parent", "parent", func(sys *Sys, args []string) int {
		spawned[0], _ = sys.Spawn("/bin/slow", nil, nil)
		spawned[1], _ = sys.Spawn("/bin/fast", nil, nil)
		sys.Sleep(sim.Second) // both children are zombies by now
		for i := range reaped {
			reaped[i], statuses[i], errs[i] = sys.Wait()
		}
		return 0
	})
	w.spawn(t, "/bin/parent")
	w.run(t)
	if errs != [2]errno.Errno{} {
		t.Fatalf("wait errors: %v", errs)
	}
	if reaped != spawned || spawned[0] >= spawned[1] {
		t.Fatalf("wait reaped %v, want %v (lowest pid first)", reaped, spawned)
	}
	if statuses != [2]int{1 << 8, 2 << 8} {
		t.Fatalf("statuses = %#x", statuses)
	}
}

// BenchmarkProcs takes a census of the same 8 live processes with the
// pid counter at 1 and raised past 200,000: the cost should not depend
// on how many pids were ever handed out.
func BenchmarkProcs(b *testing.B) {
	for _, next := range []int{1, 200_001} {
		b.Run(fmt.Sprintf("nextPid=%d", next), func(b *testing.B) {
			m := NewMachine(sim.NewEngine(), "brick", vm.ISA1, Config{})
			m.SetNextPID(next)
			for i := 0; i < 8; i++ {
				m.newProc(Creds{}, "/", nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(m.Procs()) != 8 {
					b.Fatal("census lost a process")
				}
			}
		})
	}
}
