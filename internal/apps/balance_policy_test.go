package apps_test

import (
	"errors"
	"testing"

	"procmig/internal/apps"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// fakeView is a scriptable LoadView: tests mutate Members between steps
// to play back whatever sequence of heartbeat views they need.
type fakeView struct {
	Members []ha.Member
}

func (v *fakeView) ViewInto(_ *ha.ViewBuf) []ha.Member {
	out := make([]ha.Member, len(v.Members))
	copy(out, v.Members)
	return out
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
		{Host: "a", Load: 3, Alive: true, Procs: []ha.ProcStat{cpuBound(10, 0, 20*sim.Second)}},
		{Host: "b", Load: 1, Alive: true},
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
		// Beacon lag: the view now shows the moved pid busy on b with its
		// pre-move age, and the loads inverted. Within the cooldown the
		// balancer must leave the freshly-moved pid alone.
		view.Members = []ha.Member{
			{Host: "a", Load: 1, Alive: true},
			{Host: "b", Load: 3, Alive: true, Procs: []ha.ProcStat{cpuBound(110, 10, 25*sim.Second)}},
		}
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
	if len(b.Failed) != 0 {
		t.Fatalf("unexpected failed attempts: %+v", b.Failed)
	}
}

// TestBalancerNearLevelLoad: a one-job imbalance is below MinImbalance —
// moving would just swap which machine is busier, so nothing moves.
func TestBalancerNearLevelLoad(t *testing.T) {
	eng := sim.NewEngine()
	view := &fakeView{Members: []ha.Member{
		{Host: "a", Load: 2, Alive: true, Procs: []ha.ProcStat{cpuBound(10, 0, 20*sim.Second)}},
		{Host: "b", Load: 1, Alive: true, Procs: []ha.ProcStat{cpuBound(20, 0, 20*sim.Second)}},
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
		{Host: "a", Load: 4, Alive: true, Procs: []ha.ProcStat{cpuBound(10, 0, 20*sim.Second)}},
		{Host: "b", Load: 0, Alive: true},
	}}
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
		{Host: "a", Load: 3, Alive: true, Procs: []ha.ProcStat{cpuBound(10, 0, 20*sim.Second)}},
		{Host: "b", Load: 1, Alive: true},
		{Host: "c", Load: 0, Alive: false}, // crashed: never a target
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
		// c is down, so the hog must land on b, not the (idler) dead host.
		if !b.Step(tk) {
			t.Error("balancer did not move the hog off the busy host")
		}
		// c revives: back in the view, alive and idle — the most attractive
		// target. The freshly-moved pid is inside the cooldown, so nothing
		// may move onto it yet.
		view.Members = []ha.Member{
			{Host: "a", Load: 1, Alive: true},
			{Host: "b", Load: 3, Alive: true, Procs: []ha.ProcStat{cpuBound(110, 10, 25*sim.Second)}},
			{Host: "c", Load: 0, Alive: true},
		}
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
