package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// dispatchRec is one resumption as the resumed task sees it.
type dispatchRec struct {
	At    Time
	Task  string
	Cause string
}

// mixedStorm spawns actors that pick their next step from the engine's
// PRNG: sleeps, yields, wakes racing timeouts, timeouts that always fire,
// contended CPU slices and spawned children. Each actor logs (time, name,
// cause) on every resumption. With stall set, one extra actor waits on a
// queue nobody wakes, so the run ends in a StallError.
func mixedStorm(e *Engine, stall bool) *[]dispatchRec {
	trace := new([]dispatchRec)
	log := func(t *Task, cause string) {
		*trace = append(*trace, dispatchRec{t.Now(), t.Name(), cause})
	}
	var q Queue
	cpu := NewResource(2*Millisecond, 100*Microsecond)
	e.Seed(41)
	for i := 0; i < 16; i++ {
		e.GoAfter(fmt.Sprintf("w%02d", i), Duration(i%3)*Millisecond, func(t *Task) {
			log(t, "start")
			for r := 0; r < 30; r++ {
				switch e.Rand() % 6 {
				case 0:
					t.Sleep(Duration(e.Rand()%4) * Millisecond)
					log(t, "timer")
				case 1:
					t.Yield()
					log(t, "timer")
				case 2:
					q.Wake(1)
					if t.WaitTimeout(&q, 2*Millisecond) {
						log(t, "queue")
					} else {
						log(t, "timeout")
					}
				case 3:
					var lonely Queue
					t.WaitTimeout(&lonely, 500*Microsecond)
					log(t, "timeout")
				case 4:
					cpu.Use(t, 5*Millisecond, nil)
					log(t, "cpu")
				case 5:
					e.GoAfter(t.Name()+"/c", Duration(e.Rand()%3)*Millisecond, func(c *Task) {
						log(c, "start")
						c.Sleep(Millisecond)
						log(c, "timer")
					})
				}
			}
		})
	}
	if stall {
		e.Go("stuck", func(t *Task) {
			var never Queue
			t.Wait(&never)
		})
	}
	return trace
}

// runStepped drives e to the end in RunUntil steps of the given length.
func runStepped(e *Engine, step Duration) error {
	for limit := Time(0); e.nlive > 0; limit += Time(step) {
		if err := e.RunUntil(limit); err != nil {
			return err
		}
	}
	return nil
}

// TestRunUntilStepsReplayRun: a storm driven to the end by Run and the
// same storm driven by many short RunUntil steps dispatch the same events
// in the same order, with identical Stats, both when every task finishes
// and when the run ends in a StallError detected on a task's goroutine.
func TestRunUntilStepsReplayRun(t *testing.T) {
	for _, stall := range []bool{false, true} {
		whole := NewEngine()
		wholeTrace := mixedStorm(whole, stall)
		wholeErr := whole.Run()

		stepped := NewEngine()
		steppedTrace := mixedStorm(stepped, stall)
		steppedErr := runStepped(stepped, 300*Microsecond)

		if stall {
			if _, ok := wholeErr.(*StallError); !ok {
				t.Fatalf("stall storm: Run returned %v, want a StallError", wholeErr)
			}
		} else if wholeErr != nil {
			t.Fatalf("Run: %v", wholeErr)
		}
		if !reflect.DeepEqual(wholeErr, steppedErr) {
			t.Fatalf("stall=%v: Run returned %v, stepped RunUntil %v", stall, wholeErr, steppedErr)
		}
		if len(*wholeTrace) < 500 {
			t.Fatalf("stall=%v: storm too small: %d resumptions", stall, len(*wholeTrace))
		}
		if !reflect.DeepEqual(*wholeTrace, *steppedTrace) {
			a, b := *wholeTrace, *steppedTrace
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Fatalf("stall=%v: traces diverge at %d: Run %+v, stepped %+v", stall, i, a[i], b[i])
				}
			}
			t.Fatalf("stall=%v: trace lengths %d (Run) vs %d (stepped)", stall, len(a), len(b))
		}
		ws, ss := whole.Stats(), stepped.Stats()
		if ws != ss {
			t.Fatalf("stall=%v: Stats differ:\nRun     %+v\nstepped %+v", stall, ws, ss)
		}
		if ws.Switches == 0 || ws.Switches >= ws.Dispatched {
			t.Fatalf("stall=%v: %d switches for %d dispatches, want some but not all", stall, ws.Switches, ws.Dispatched)
		}
	}
}

// TestSwitchesCountHandOffs: a lone sleeper resumes itself after its first
// dispatch, while two sleepers in lockstep hand off on every event.
func TestSwitchesCountHandOffs(t *testing.T) {
	for _, tc := range []struct {
		actors       int
		wantSwitches int64
	}{{1, 1}, {2, 2 * 11}} {
		e := NewEngine()
		for i := 0; i < tc.actors; i++ {
			e.Go("s", func(tk *Task) {
				for r := 0; r < 10; r++ {
					tk.Sleep(Millisecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Switches != tc.wantSwitches || st.Dispatched != int64(tc.actors*11) {
			t.Fatalf("%d actors: %d switches over %d dispatches, want %d over %d",
				tc.actors, st.Switches, st.Dispatched, tc.wantSwitches, tc.actors*11)
		}
	}
}

// TestStallListsLiveTasks: exited tasks leave the task table, through its
// compaction, and only the blocked ones are reported.
func TestStallListsLiveTasks(t *testing.T) {
	e := NewEngine()
	var never Queue
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("t%02d", i)
		e.Go(name, func(tk *Task) {
			if i%7 == 3 {
				tk.Wait(&never)
			}
			tk.Sleep(Duration(i) * Millisecond)
		})
	}
	err := e.Run()
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("Run = %v, want a StallError", err)
	}
	if want := []string{"t03", "t10", "t17"}; !reflect.DeepEqual(se.Blocked, want) {
		t.Fatalf("blocked %v, want %v", se.Blocked, want)
	}
	if len(e.tasks) > 2*e.nlive {
		t.Fatalf("task table holds %d slots for %d live tasks", len(e.tasks), e.nlive)
	}
}

// awaitGoroutines waits until at most want goroutines remain: a task's
// goroutine tells Close it is done just before it returns.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestCloseUnwindsEveryTask: Close unwinds tasks parked in each primitive,
// in spawn order, runs their deferred calls, never starts a task that has
// not begun, stops a deferred call that parks while unwinding, and leaves
// no goroutine behind.
func TestCloseUnwindsEveryTask(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var never Queue
	cpu := NewResource(Millisecond, 0)
	var unwound []string
	spawn := func(name string, body func(tk *Task)) {
		e.Go(name, func(tk *Task) {
			defer func() { unwound = append(unwound, name) }()
			body(tk)
			t.Errorf("%s: returned instead of unwinding", name)
		})
	}
	spawn("sleep", func(tk *Task) { tk.Sleep(Second) })
	spawn("wait", func(tk *Task) { tk.Wait(&never) })
	spawn("timeout", func(tk *Task) { tk.WaitTimeout(&never, Second) })
	spawn("cpu-a", func(tk *Task) { cpu.Use(tk, Second, nil) })
	spawn("cpu-b", func(tk *Task) { cpu.Use(tk, Second, nil) })
	e.GoAfter("unstarted", Second, func(*Task) { t.Error("unstarted task ran") })
	deferredResumed := false
	spawn("defer-parks", func(tk *Task) {
		defer func() {
			tk.Sleep(Millisecond)
			deferredResumed = true
		}()
		tk.Wait(&never)
	})
	if err := e.RunUntil(Time(10 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	want := []string{"sleep", "wait", "timeout", "cpu-a", "cpu-b", "defer-parks"}
	if !reflect.DeepEqual(unwound, want) {
		t.Fatalf("unwound %v, want %v", unwound, want)
	}
	if deferredResumed {
		t.Fatal("a deferred call parked during Close and was resumed")
	}
	if e.nlive != 0 || e.Current() != nil {
		t.Fatalf("after Close: %d live tasks, current %v", e.nlive, e.Current())
	}
	awaitGoroutines(t, base)
}

// TestCloseIsIdempotent: closing twice, or closing an engine that ran to
// the end, is a no-op.
func TestCloseIsIdempotent(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("done", func(tk *Task) { tk.Sleep(Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	awaitGoroutines(t, base)
}
