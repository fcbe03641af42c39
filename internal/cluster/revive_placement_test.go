package cluster_test

import (
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// sleeperSrc is a minimal always-running replica: sleep a second, loop.
const sleeperSrc = `
loop:   movi r0, 1
        sys  sleep
        jmp  loop
`

// TestRevivedHostRejoinsPlacement: a crashed host that is revived rejoins
// the heartbeat view and becomes a legal placement target again. The
// scenario makes the revival the *only* way to converge: four hosts, four
// replicas with anti-affinity. While the crashed host is down the deficit
// is unfixable (every alive host already has its one copy); the moment it
// revives, the controller must place the missing replica there.
func TestRevivedHostRejoinsPlacement(t *testing.T) {
	c, err := cluster.NewSimple("a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.Seed(3)
	if err := c.InstallVM("/bin/svc", sleeperSrc); err != nil {
		t.Fatal(err)
	}
	if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	ctl, err := c.StartController("a", controller.Config{})
	if err != nil {
		t.Fatal(err)
	}

	perHost := func() map[string]int {
		st, _ := ctl.App("svc")
		per := map[string]int{}
		for _, r := range st.Replicas {
			per[r.Host]++
		}
		return per
	}
	c.Eng.Go("driver", func(tk *sim.Task) {
		waitConverged := func(budget sim.Duration) bool {
			deadline := tk.Now() + sim.Time(budget)
			for tk.Now() < deadline {
				tk.Sleep(2 * sim.Second)
				if ctl.Converged() {
					return true
				}
			}
			return false
		}

		tk.Sleep(5 * sim.Second) // let the first beacons land
		if err := ctl.Submit(controller.AppSpec{
			Name: "svc", Path: "/bin/svc", Replicas: 4, AntiAffinity: true,
		}); err != nil {
			t.Error(err)
			return
		}
		if !waitConverged(60 * sim.Second) {
			t.Error("rollout never converged")
			return
		}
		for _, h := range []string{"a", "b", "c", "d"} {
			if n := perHost()[h]; n != 1 {
				t.Errorf("anti-affinity rollout put %d replicas on %s", n, h)
			}
		}

		c.Crash("d")
		tk.Sleep(30 * sim.Second) // suspicion + DeadGrace + respawn attempts
		if ctl.Converged() {
			t.Error("converged with a dead host — anti-affinity should leave the deficit open")
		}
		st, _ := ctl.App("svc")
		if st.Live != 3 || len(st.Replicas) != 3 {
			t.Errorf("with d down want exactly 3 bound replicas, got live=%d bound=%d",
				st.Live, len(st.Replicas))
		}
		if perHost()["d"] != 0 {
			t.Error("controller still claims a replica on the crashed host")
		}
		for _, m := range c.HA("a").ViewInto(nil) {
			if m.Host == "d" && m.Alive {
				t.Error("crashed host still alive in the controller's view")
			}
		}

		if err := c.ReviveHost("d"); err != nil {
			t.Error(err)
			return
		}
		if !waitConverged(60 * sim.Second) {
			t.Error("controller never reused the revived host")
			return
		}
		if n := perHost()["d"]; n != 1 {
			t.Errorf("revived host carries %d replicas, want 1 (the only legal placement)", n)
		}
		seen := false
		for _, m := range c.HA("a").ViewInto(nil) {
			if m.Host == "d" {
				seen = m.Alive
			}
		}
		if !seen {
			t.Error("revived host not alive in the controller's view")
		}
		c.StopController()
		c.StopHA()
	})
	if err := c.RunUntil(sim.Time(400 * sim.Second)); err != nil {
		if _, stalled := err.(*sim.StallError); !stalled {
			t.Fatal(err)
		}
	}
}
