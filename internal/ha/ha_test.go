package ha_test

import (
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/core"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// --- wire format --------------------------------------------------------------

func TestHeartbeatRoundTrip(t *testing.T) {
	hb := &ha.Heartbeat{Host: "alpha", Seq: 7, Load: 2, Procs: []ha.ProcStat{
		{PID: 1001, OldPID: 3, Age: 5 * sim.Second, CPU: 2 * sim.Second},
		{PID: 1002, Age: sim.Second, CPU: 100 * sim.Millisecond},
	}}
	got, err := ha.DecodeHeartbeat(hb.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != hb.Host || got.Seq != hb.Seq || got.Load != hb.Load || len(got.Procs) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Procs[0] != hb.Procs[0] || got.Procs[1] != hb.Procs[1] {
		t.Fatalf("round trip lost proc stats: %+v", got.Procs)
	}
}

func TestDecodeHeartbeatRejects(t *testing.T) {
	good := (&ha.Heartbeat{Host: "alpha", Seq: 1, Procs: []ha.ProcStat{{PID: 9}}}).Encode()
	for name, raw := range map[string][]byte{
		"empty":      {},
		"short":      good[:5],
		"bad magic":  append([]byte{0xff, 0xff}, good[2:]...),
		"truncated":  good[:len(good)-3],
		"trailing":   append(append([]byte{}, good...), 1, 2, 3),
		"count lies": func() []byte { b := append([]byte{}, good...); b[len("alpha")+16] = 200; return b }(),
	} {
		if _, err := ha.DecodeHeartbeat(raw); err == nil {
			t.Errorf("%s: decoder accepted malformed beacon", name)
		}
	}
}

// --- membership ---------------------------------------------------------------

func TestMembershipSuspicion(t *testing.T) {
	ms := ha.NewMembership("beta", 3*sim.Second)
	if ms.Alive("alpha", 0) {
		t.Fatal("never-heard host reported alive")
	}
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 1, Load: 2}, sim.Time(sim.Second))
	if !ms.Alive("alpha", sim.Time(3*sim.Second)) {
		t.Fatal("fresh host not alive")
	}
	if ms.Alive("alpha", sim.Time(5*sim.Second)) {
		t.Fatal("silent host still alive past SuspectAfter")
	}
	// A late duplicate refreshes liveness but never rolls state back.
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 5, Load: 7}, sim.Time(6*sim.Second))
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 2, Load: 1}, sim.Time(7*sim.Second))
	v := ms.View(sim.Time(7 * sim.Second))
	if len(v) != 1 || v[0].Seq != 5 || v[0].Load != 7 {
		t.Fatalf("stale beacon rolled state back: %+v", v)
	}
	if !v[0].Alive {
		t.Fatal("duplicate did not refresh liveness")
	}
}

func TestMembershipViewSorted(t *testing.T) {
	ms := ha.NewMembership("x", sim.Second)
	for _, h := range []string{"zeta", "alpha", "mid"} {
		ms.Observe(&ha.Heartbeat{Host: h, Seq: 1}, 0)
	}
	v := ms.View(0)
	if len(v) != 3 || v[0].Host != "alpha" || v[1].Host != "mid" || v[2].Host != "zeta" {
		t.Fatalf("view not sorted: %+v", v)
	}
}

// --- control plane on a live cluster ------------------------------------------

func bootHA(t *testing.T, cfg ha.Config, names ...string) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewSimple(names...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM("/bin/hog", cluster.HogSrc); err != nil {
		t.Fatal(err)
	}
	if err := c.StartHA(cfg); err != nil {
		t.Fatal(err)
	}
	return c
}

func killAll(c *cluster.Cluster) {
	c.StopHA()
	for _, name := range c.Names() {
		for _, p := range c.Machine(name).Procs() {
			c.Machine(name).Kill(kernel.Creds{}, p.PID, kernel.SIGKILL)
		}
	}
}

// TestHeartbeatViewConverges: after a few beacon intervals every node sees
// every other node alive, with the load the peer advertised.
func TestHeartbeatViewConverges(t *testing.T) {
	c := bootHA(t, ha.Config{Interval: sim.Second}, "alpha", "beta", "gamma")
	var view []ha.Member
	c.Eng.Go("driver", func(tk *sim.Task) {
		if _, err := c.Spawn("gamma", nil, cluster.DefaultUser, "/bin/hog"); err != nil {
			t.Error(err)
		}
		tk.Sleep(5 * sim.Second)
		view = c.HA("alpha").Members().View(tk.Now())
		killAll(c)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(view) != 3 {
		t.Fatalf("alpha sees %d members, want 3: %+v", len(view), view)
	}
	for _, m := range view {
		if !m.Alive {
			t.Errorf("member %s not alive in a healthy cluster", m.Host)
		}
	}
	if view[2].Host != "gamma" || len(view[2].Procs) != 1 {
		t.Fatalf("gamma's hog missing from the view: %+v", view[2])
	}
}

// TestGuardianRecoversCrash: a protected hog's host crashes; the buddy
// detects, arbitrates, and restarts the newest committed checkpoint, and
// the cluster ends with exactly one live copy and no spool left behind.
func TestGuardianRecoversCrash(t *testing.T) {
	c := bootHA(t, ha.Config{Interval: sim.Second, CkptInterval: 2 * sim.Second},
		"alpha", "beta", "gamma")
	var recs []ha.Recovery
	var liveCopies int
	c.Eng.Go("driver", func(tk *sim.Task) {
		defer killAll(c)
		hog, err := c.Spawn("alpha", nil, cluster.DefaultUser, "/bin/hog")
		if err != nil {
			t.Error(err)
			return
		}
		buddy := c.HA("beta").Guard
		c.HA("alpha").Guard.Protect(hog.PID, "beta")
		for buddy.CommittedSeq("alpha", hog.PID) < 1 && tk.Now() < sim.Time(30*sim.Second) {
			tk.Sleep(250 * sim.Millisecond)
		}
		if buddy.CommittedSeq("alpha", hog.PID) == 0 {
			t.Error("no checkpoint committed")
			return
		}
		c.Crash("alpha")
		deadline := tk.Now() + sim.Time(30*sim.Second)
		for len(buddy.Recoveries) == 0 && tk.Now() < deadline {
			tk.Sleep(250 * sim.Millisecond)
		}
		recs = append([]ha.Recovery(nil), buddy.Recoveries...)
		// The dump files recovery spooled to the buddy's /usr/tmp were
		// pure staging for restart, and must be gone once it ran.
		aoutPath, filesPath, stackPath := core.DumpPaths("", hog.PID)
		for _, path := range []string{aoutPath, filesPath, stackPath} {
			if _, err := c.Machine("beta").NS().ReadFile(path); err == nil {
				t.Errorf("spool file %s leaked on the buddy after recovery", path)
			}
		}
		tk.Sleep(sim.Second)
		if hog.State == kernel.ProcRunning {
			liveCopies++
		}
		for _, pi := range c.Machine("beta").PS() {
			if p, ok := c.Machine("beta").FindProc(pi.PID); ok && p.Migrated && p.State == kernel.ProcRunning {
				liveCopies++
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != 0 || recs[0].NewPID == 0 {
		t.Fatalf("recovery records = %+v, want one successful restart", recs)
	}
	if liveCopies != 1 {
		t.Fatalf("%d live copies after recovery, want exactly 1", liveCopies)
	}
}

// TestGuardianFalseSuspicion: alpha's outbound control-plane traffic is
// partitioned away (heartbeats AND checkpoint spools) while alpha itself
// stays up. The buddy must suspect, arbitrate over the still-working
// transaction port, find alpha alive, and never restart — the cluster
// keeps exactly one live copy of the protected process.
func TestGuardianFalseSuspicion(t *testing.T) {
	c := bootHA(t, ha.Config{Interval: sim.Second, CkptInterval: 2 * sim.Second},
		"alpha", "beta", "gamma")
	var falseSusp, liveCopies int
	var recs int
	c.Eng.Go("driver", func(tk *sim.Task) {
		defer killAll(c)
		hog, err := c.Spawn("alpha", nil, cluster.DefaultUser, "/bin/hog")
		if err != nil {
			t.Error(err)
			return
		}
		buddy := c.HA("beta").Guard
		c.HA("alpha").Guard.Protect(hog.PID, "beta")
		for buddy.CommittedSeq("alpha", hog.PID) < 1 && tk.Now() < sim.Time(30*sim.Second) {
			tk.Sleep(250 * sim.Millisecond)
		}
		if buddy.CommittedSeq("alpha", hog.PID) == 0 {
			t.Error("no checkpoint committed before the partition")
			return
		}
		// The scalpel: only alpha's outbound beacons and spools die. The
		// migd transaction port stays reachable in both directions.
		drop := netsim.FaultSpec{Drop: 1.0}
		for _, peer := range []string{"beta", "gamma"} {
			c.Net.FaultLinkPort("alpha", peer, ha.HBPort, drop)
			c.Net.FaultLinkPort("alpha", peer, ha.GuardSpoolPort, drop)
		}
		tk.Sleep(20 * sim.Second)
		falseSusp = buddy.FalseSuspicions
		recs = len(buddy.Recoveries)
		c.Net.ClearFaults()
		if hog.State == kernel.ProcRunning {
			liveCopies++
		}
		for _, pi := range c.Machine("beta").PS() {
			if p, ok := c.Machine("beta").FindProc(pi.PID); ok && p.Migrated && p.State == kernel.ProcRunning {
				liveCopies++
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if falseSusp == 0 {
		t.Fatal("buddy never arbitrated a suspicion during the partition")
	}
	if recs != 0 {
		t.Fatalf("buddy restarted %d copies of a live process", recs)
	}
	if liveCopies != 1 {
		t.Fatalf("%d live copies, want exactly 1 (the original)", liveCopies)
	}
}

// TestGuardianReleasesOnExit: a protected process that ends voluntarily is
// released — the buddy never restarts it, even after the source's silence.
func TestGuardianReleasesOnExit(t *testing.T) {
	c := bootHA(t, ha.Config{Interval: sim.Second, CkptInterval: 2 * sim.Second},
		"alpha", "beta")
	if err := c.InstallVM("/bin/job", cluster.FiniteHogSrc); err != nil {
		t.Fatal(err)
	}
	var recs int
	c.Eng.Go("driver", func(tk *sim.Task) {
		defer killAll(c)
		job, err := c.Spawn("alpha", nil, cluster.DefaultUser, "/bin/job")
		if err != nil {
			t.Error(err)
			return
		}
		buddy := c.HA("beta").Guard
		c.HA("alpha").Guard.Protect(job.PID, "beta")
		job.AwaitExit(tk)
		// Give the source's guardian a tick to notice and release, then
		// crash alpha: the buddy must still not restart the finished job.
		tk.Sleep(3 * sim.Second)
		c.Crash("alpha")
		tk.Sleep(15 * sim.Second)
		recs = len(buddy.Recoveries)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recs != 0 {
		t.Fatalf("buddy restarted a voluntarily-exited process %d times", recs)
	}
}
