package apps_test

import (
	"errors"
	"reflect"
	"testing"

	"procmig/internal/apps"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// fakeView is a scriptable LoadView: tests mutate Members and Procs
// between steps to play back whatever sequence of heartbeat views and
// census answers they need. A host with no Procs entry does not answer.
type fakeView struct {
	Members []ha.Member
	Procs   map[string][]ha.ProcStat
	Asked   []string // every census query, in order
}

func (v *fakeView) ViewInto(dst []ha.Member) []ha.Member {
	return append(dst[:0], v.Members...)
}

func (v *fakeView) Census(_ *sim.Task, host string, dst []ha.ProcStat) ([]ha.ProcStat, error) {
	v.Asked = append(v.Asked, host)
	procs, ok := v.Procs[host]
	if !ok {
		return dst[:0], errors.New("fake: no answer from " + host)
	}
	return append(dst[:0], procs...), nil
}

func cpuBound(pid, oldPid int, age sim.Duration) ha.ProcStat {
	return ha.ProcStat{PID: pid, OldPID: oldPid, Age: age, CPU: age}
}

// TestBalancerAntiThrash: after moving a pid, the balancer must not bounce
// it straight back even when the beacon view momentarily inverts — the
// cooldown holds until the fresh view settles.
func TestBalancerAntiThrash(t *testing.T) {
	eng := sim.NewEngine()
	view := &fakeView{Members: []ha.Member{
		{Host: "a", Load: 3, Alive: true},
		{Host: "b", Load: 1, Alive: true},
	}, Procs: map[string][]ha.ProcStat{
		"a": {cpuBound(10, 0, 20*sim.Second)},
		"b": {},
	}}
	var moves []string
	b := &apps.Balancer{
		View:   view,
		Period: 5 * sim.Second,
		MinAge: sim.Second,
		Migrate: func(_ *sim.Task, src string, pid int, dst string) (int, error) {
			moves = append(moves, src+"→"+dst)
			return pid + 100, nil
		},
	}
	eng.Go("driver", func(tk *sim.Task) {
		tk.Sleep(sim.Second)
		if !b.Step(tk) {
			t.Error("balancer did not move the hog off the busy host")
		}
		// View lag: b's census now lists the moved pid busy with its
		// pre-move age, and the loads inverted. Within the cooldown the
		// balancer must leave the freshly-moved pid alone.
		view.Members = []ha.Member{
			{Host: "a", Load: 1, Alive: true},
			{Host: "b", Load: 3, Alive: true},
		}
		view.Procs = map[string][]ha.ProcStat{"a": {}, "b": {cpuBound(110, 10, 25*sim.Second)}}
		tk.Sleep(sim.Second)
		if b.Step(tk) {
			t.Error("balancer bounced a freshly-moved pid back inside the cooldown")
		}
		// Past the cooldown (2×Period) the pid is fair game again.
		tk.Sleep(10 * sim.Second)
		if !b.Step(tk) {
			t.Error("cooldown never expired")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(moves) != 2 || moves[0] != "a→b" || moves[1] != "b→a" {
		t.Fatalf("moves = %v", moves)
	}
	// Candidates come from the busiest host's census alone.
	if want := []string{"a", "b", "b"}; !reflect.DeepEqual(view.Asked, want) {
		t.Fatalf("census queries %v, want %v", view.Asked, want)
	}
	if len(b.Failed) != 0 {
		t.Fatalf("unexpected failed attempts: %+v", b.Failed)
	}
}

// TestBalancerNearLevelLoad: a one-job imbalance is below MinImbalance —
// moving would just swap which machine is busier, so nothing moves.
func TestBalancerNearLevelLoad(t *testing.T) {
	eng := sim.NewEngine()
	view := &fakeView{Members: []ha.Member{
		{Host: "a", Load: 2, Alive: true},
		{Host: "b", Load: 1, Alive: true},
	}, Procs: map[string][]ha.ProcStat{
		"a": {cpuBound(10, 0, 20*sim.Second)},
		"b": {cpuBound(20, 0, 20*sim.Second)},
	}}
	b := &apps.Balancer{
		View:   view,
		Period: 5 * sim.Second,
		MinAge: sim.Second,
		Migrate: func(_ *sim.Task, _ string, _ int, _ string) (int, error) {
			t.Error("balancer moved a process on near-level load")
			return 0, nil
		},
	}
	eng.Go("driver", func(tk *sim.Task) {
		for i := 0; i < 4; i++ {
			tk.Sleep(sim.Second)
			if b.Step(tk) {
				t.Error("Step reported a move on near-level load")
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBalancerRecordsFailures: a failed migration attempt lands in Failed
// with its reason instead of being silently swallowed.
func TestBalancerRecordsFailures(t *testing.T) {
	eng := sim.NewEngine()
	view := &fakeView{Members: []ha.Member{
		{Host: "a", Load: 4, Alive: true},
		{Host: "b", Load: 0, Alive: true},
	}, Procs: map[string][]ha.ProcStat{"a": {cpuBound(10, 0, 20*sim.Second)}}}
	b := &apps.Balancer{
		View:   view,
		Period: 5 * sim.Second,
		MinAge: sim.Second,
		Migrate: func(_ *sim.Task, _ string, _ int, _ string) (int, error) {
			return 0, errors.New("migd: transaction aborted")
		},
	}
	eng.Go("driver", func(tk *sim.Task) {
		tk.Sleep(sim.Second)
		if b.Step(tk) {
			t.Error("Step reported success on a failed migration")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 0 {
		t.Fatalf("failed attempt recorded as success: %+v", b.Events)
	}
	if len(b.Failed) != 1 || b.Failed[0].Err != "migd: transaction aborted" ||
		b.Failed[0].PID != 10 || b.Failed[0].From != "a" || b.Failed[0].To != "b" {
		t.Fatalf("Failed = %+v, want the aborted attempt with its reason", b.Failed)
	}
}

// TestBalancerRevivedHostTarget: a host that was down and comes back
// (revival) is a legal migration target again — but a pid the balancer
// just moved must not be bounced onto it inside the anti-thrash cooldown,
// even though the revived host is now the idlest in the view.
func TestBalancerRevivedHostTarget(t *testing.T) {
	eng := sim.NewEngine()
	view := &fakeView{Members: []ha.Member{
		{Host: "a", Load: 3, Alive: true},
		{Host: "b", Load: 1, Alive: true},
		{Host: "c", Load: 0, Alive: false}, // crashed: never a target
	}, Procs: map[string][]ha.ProcStat{"a": {cpuBound(10, 0, 20*sim.Second)}}}
	var moves []string
	b := &apps.Balancer{
		View:   view,
		Period: 5 * sim.Second,
		MinAge: sim.Second,
		Migrate: func(_ *sim.Task, src string, pid int, dst string) (int, error) {
			moves = append(moves, src+"→"+dst)
			return pid + 100, nil
		},
	}
	eng.Go("driver", func(tk *sim.Task) {
		tk.Sleep(sim.Second)
		// c is down, so the hog must land on b, not the (idler) dead host.
		if !b.Step(tk) {
			t.Error("balancer did not move the hog off the busy host")
		}
		// c revives: back in the view, alive and idle — the most attractive
		// target. The freshly-moved pid is inside the cooldown, so nothing
		// may move onto it yet.
		view.Members = []ha.Member{
			{Host: "a", Load: 1, Alive: true},
			{Host: "b", Load: 3, Alive: true},
			{Host: "c", Load: 0, Alive: true},
		}
		view.Procs = map[string][]ha.ProcStat{"b": {cpuBound(110, 10, 25*sim.Second)}}
		tk.Sleep(sim.Second)
		if b.Step(tk) {
			t.Error("balancer thrashed a freshly-moved pid onto the revived host inside the cooldown")
		}
		// Past the cooldown the revived host is a normal target.
		tk.Sleep(10 * sim.Second)
		if !b.Step(tk) {
			t.Error("revived host never became a placement target")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(moves) != 2 || moves[0] != "a→b" || moves[1] != "b→c" {
		t.Fatalf("moves = %v, want a→b then (post-cooldown) b→c", moves)
	}
}

// TestNightSchedulerRelocatesStaleJobAtDestination: a night move commits
// but its reply (carrying the new pid) is lost. The scheduler asks the
// destination it recorded and finds the job by the OldPID its restarted
// copy reports — not the source, where a decoy reports the same OldPID.
func TestNightSchedulerRelocatesStaleJobAtDestination(t *testing.T) {
	eng := sim.NewEngine()
	view := &fakeView{Procs: map[string][]ha.ProcStat{
		"home": {{PID: 10}, {PID: 11}, {PID: 300, OldPID: 11}},
		"w1":   {},
	}}
	nextPid := 500
	ns := &apps.NightScheduler{
		View:     view,
		Home:     "home",
		Machines: []string{"home", "w1"},
		Migrate: func(_ *sim.Task, src string, pid int, dst string) (int, error) {
			kept := view.Procs[src][:0]
			for _, ps := range view.Procs[src] {
				if ps.PID != pid {
					kept = append(kept, ps)
				}
			}
			view.Procs[src] = kept
			nextPid++
			view.Procs[dst] = append(view.Procs[dst], ha.ProcStat{PID: nextPid, OldPID: pid})
			if dst == "w1" {
				return 0, nil // committed; the reply with the new pid was lost
			}
			return nextPid, nil
		},
	}
	ns.Add("home", 10)
	ns.Add("home", 11)
	var night, day map[string]int
	var running int
	eng.Go("driver", func(tk *sim.Task) {
		ns.Nightfall(tk)
		view.Asked = nil
		night = ns.Placement(tk)
		if want := []string{"home", "w1"}; !reflect.DeepEqual(view.Asked, want) {
			t.Errorf("census queries %v, want %v", view.Asked, want)
		}
		running = ns.Running(tk)
		ns.Daybreak(tk)
		day = ns.Placement(tk)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if night["home"] != 1 || night["w1"] != 1 || running != 2 {
		t.Fatalf("night placement %v with %d running, want one job per machine", night, running)
	}
	if day["home"] != 2 || len(ns.Events) != 2 || ns.Events[1].PID != 501 || ns.Events[1].From != "w1" {
		t.Fatalf("day placement %v after %+v, want the relocated job (pid 501) brought home", day, ns.Events)
	}
}
