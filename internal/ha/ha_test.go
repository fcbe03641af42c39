package ha_test

import (
	"reflect"
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
	hb := &ha.Heartbeat{Host: "alpha", Seq: 7, Inc: 2, Load: 2}
	raw := hb.Encode()
	if len(raw) != 16+len(hb.Host) {
		t.Fatalf("a beacon with no news encodes to %d bytes, want its %d-byte header", len(raw), 16+len(hb.Host))
	}
	got, err := ha.DecodeHeartbeat(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != hb.Host || got.Seq != hb.Seq || got.Inc != hb.Inc || got.Load != hb.Load || len(got.Summaries) != 0 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestDecodeHeartbeatRejects(t *testing.T) {
	good := (&ha.Heartbeat{Host: "alpha", Seq: 1, Summaries: []ha.MemberSummary{{Host: "b", Seq: 3}}}).Encode()
	for name, raw := range map[string][]byte{
		"empty":      {},
		"short":      good[:5],
		"bad magic":  append([]byte{0xff, 0xff}, good[2:]...),
		"truncated":  good[:len(good)-3],
		"trailing":   append(append([]byte{}, good...), 1, 2, 3),
		"count lies": func() []byte { b := append([]byte{}, good...); b[len("alpha")+17] = 200; return b }(),
	} {
		if _, err := ha.DecodeHeartbeat(raw); err == nil {
			t.Errorf("%s: decoder accepted malformed beacon", name)
		}
	}
}

func TestCensusRoundTrip(t *testing.T) {
	procs := []ha.ProcStat{
		{PID: 1001, OldPID: 3, Age: 5 * sim.Second, CPU: 2 * sim.Second},
		{PID: 1002, Age: sim.Second, CPU: 100 * sim.Millisecond},
	}
	raw := ha.AppendCensus(nil, procs)
	got, err := ha.DecodeCensus(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, procs) {
		t.Fatalf("round trip gave %+v, want %+v", got, procs)
	}
	if got, err := ha.DecodeCensus(ha.AppendCensus(nil, nil), got); err != nil || len(got) != 0 {
		t.Fatalf("empty census decoded to %+v, %v", got, err)
	}
}

func TestDecodeCensusRejects(t *testing.T) {
	good := ha.AppendCensus(nil, []ha.ProcStat{{PID: 9}, {PID: 10}})
	for name, raw := range map[string][]byte{
		"empty":      {},
		"short":      good[:1],
		"truncated":  good[:len(good)-3],
		"trailing":   append(append([]byte{}, good...), 1, 2, 3),
		"count lies": func() []byte { b := append([]byte{}, good...); b[1] = 200; return b }(),
	} {
		if got, err := ha.DecodeCensus(raw, nil); err == nil || len(got) != 0 {
			t.Errorf("%s: decoder accepted malformed census: %+v", name, got)
		}
	}
}

// --- membership ---------------------------------------------------------------

func TestMembershipSuspicion(t *testing.T) {
	ms := ha.NewMembership("beta")
	if ms.Alive("alpha", 0) {
		t.Fatal("never-heard host reported alive")
	}
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 1, Load: 2}, sim.Time(sim.Second))
	if !ms.Alive("alpha", sim.Time(3*sim.Second)) {
		t.Fatal("fresh host not alive")
	}
	// Nothing times out: only a failed probe or suspicion news ends
	// liveness.
	if !ms.Alive("alpha", sim.Time(51*sim.Second)) {
		t.Fatal("50 s of silence alone ended liveness")
	}
	ms.Suspect("alpha", sim.Time(52*sim.Second))
	if ms.Alive("alpha", sim.Time(52*sim.Second)) {
		t.Fatal("suspected host still alive")
	}
	// A direct beacon is proof of life and refutes the suspicion.
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 2, Load: 2}, sim.Time(53*sim.Second))
	if m, _ := ms.Get("alpha", sim.Time(53*sim.Second)); !m.Alive || m.Suspected {
		t.Fatalf("direct beacon did not refute the suspicion: %+v", m)
	}
	// A late duplicate refreshes liveness but never rolls state back.
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 5, Load: 7}, sim.Time(56*sim.Second))
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 2, Load: 1}, sim.Time(57*sim.Second))
	v := ms.ViewInto(nil)
	if len(v) != 1 || v[0].Seq != 5 || v[0].Load != 7 {
		t.Fatalf("stale beacon rolled state back: %+v", v)
	}
	if !v[0].Alive || v[0].LastHeard != sim.Time(57*sim.Second) {
		t.Fatalf("duplicate did not refresh liveness: %+v", v[0])
	}
}

func TestMembershipViewSorted(t *testing.T) {
	ms := ha.NewMembership("x")
	for _, h := range []string{"zeta", "alpha", "mid"} {
		ms.Observe(&ha.Heartbeat{Host: h, Seq: 1}, 0)
	}
	v := ms.ViewInto(nil)
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
// every other node alive, with the load the peer advertised, and a peer
// asked for its census lists its hog.
func TestHeartbeatViewConverges(t *testing.T) {
	c := bootHA(t, ha.Config{Interval: sim.Second}, "alpha", "beta", "gamma")
	var (
		view      []ha.Member
		procs     []ha.ProcStat
		censusErr error
	)
	c.Eng.Go("driver", func(tk *sim.Task) {
		if _, err := c.Spawn("gamma", nil, cluster.DefaultUser, "/bin/hog"); err != nil {
			t.Error(err)
		}
		tk.Sleep(5 * sim.Second)
		view = c.HA("alpha").ViewInto(nil)
		procs, censusErr = c.HA("alpha").Census(tk, "gamma", nil)
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
	if view[2].Host != "gamma" || view[2].Load != 1 {
		t.Fatalf("gamma's load missing from the view: %+v", view[2])
	}
	if censusErr != nil || len(procs) != 1 {
		t.Fatalf("gamma's census: %+v, %v; want its hog", procs, censusErr)
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

// TestGuardianFalseSuspicion: the beacon path fails while alpha itself
// stays up. The buddy must suspect, arbitrate over the still-working
// transaction port, find alpha alive, and never restart — the cluster
// keeps exactly one live copy of the protected process.
//
//   - partition: alpha's outbound heartbeats AND checkpoint spools are cut.
//   - lossy: in a 3-host full mesh every beacon link loses 30% of its
//     messages both ways, so a single lost probe suspects a live source.
//     Checkpoints are sparse so that fresh commits (proof of life) do not
//     hide the suspicions.
func TestGuardianFalseSuspicion(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ckpt  sim.Duration
		seed  uint64
		fault func(c *cluster.Cluster)
		dwell sim.Duration
	}{
		{"partition", 2 * sim.Second, 0, func(c *cluster.Cluster) {
			// The scalpel: only alpha's outbound beacons and spools die.
			// The migd transaction port stays reachable in both directions.
			drop := netsim.FaultSpec{Drop: 1.0}
			for _, peer := range []string{"beta", "gamma"} {
				c.Net.FaultLinkPort("alpha", peer, ha.HBPort, drop)
				c.Net.FaultLinkPort("alpha", peer, ha.GuardSpoolPort, drop)
			}
		}, 20 * sim.Second},
		{"lossy", 20 * sim.Second, 24, func(c *cluster.Cluster) {
			lossy := netsim.FaultSpec{Drop: 0.3}
			for _, from := range c.Names() {
				for _, to := range c.Names() {
					if from != to {
						c.Net.FaultLinkPort(from, to, ha.HBPort, lossy)
					}
				}
			}
		}, 60 * sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := bootHA(t, ha.Config{Interval: sim.Second, CkptInterval: tc.ckpt},
				"alpha", "beta", "gamma")
			c.Eng.Seed(tc.seed)
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
				for buddy.CommittedSeq("alpha", hog.PID) < 1 && tk.Now() < sim.Time(60*sim.Second) {
					tk.Sleep(250 * sim.Millisecond)
				}
				if buddy.CommittedSeq("alpha", hog.PID) == 0 {
					t.Error("no checkpoint committed before the faults")
					return
				}
				tc.fault(c)
				tk.Sleep(tc.dwell)
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
			if recs != 0 {
				t.Fatalf("buddy restarted %d copies of a live process", recs)
			}
			if liveCopies != 1 {
				t.Fatalf("%d live copies, want exactly 1 (the original)", liveCopies)
			}
			if falseSusp == 0 {
				t.Fatal("buddy never arbitrated a suspicion during the faults")
			}
		})
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
