package controller_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// fakeAct is an in-memory cluster: hosts with pid tables, instant (or
// delayed) migrations, and a scriptable guardian ledger. Its View and
// Census reflect the truth immediately — grace-period behavior is
// exercised by flipping liveness and editing tables between rounds.
type fakeAct struct {
	eng     *sim.Engine
	hosts   []string
	alive   map[string]bool
	procs   map[string]map[int]*fakeProc
	nextPid int

	recoveries map[string][]ha.Recovery
	protected  []fakeProt

	migrateDelay  sim.Duration
	failMigrate   map[string]bool // src host → fail
	migrateErr    error           // what failMigrate failures return (nil → a generic error)
	loseNextReply bool            // next migration commits but reports pid 0

	asked []string // every census query, in order

	moving       map[int]bool // pids with a migration in flight
	killedMoving int          // kills aimed at a pid mid-migration
	migLog       []fakeMig    // every finished migration call, in finish order

	spawns, kills, migrations int
}

type fakeProc struct {
	pid, oldPid int
	path        string
}

type fakeProt struct {
	host, buddy string
	pid         int
}

type fakeMig struct {
	start, end sim.Time
}

func newFake(hosts ...string) *fakeAct {
	f := &fakeAct{
		hosts: hosts, alive: map[string]bool{},
		procs:       map[string]map[int]*fakeProc{},
		recoveries:  map[string][]ha.Recovery{},
		nextPid:     100,
		failMigrate: map[string]bool{},
		moving:      map[int]bool{},
	}
	for _, h := range hosts {
		f.alive[h] = true
		f.procs[h] = map[int]*fakeProc{}
	}
	return f
}

func (f *fakeAct) Hosts() []string { return f.hosts }

func (f *fakeAct) View(dst []ha.Member) []ha.Member {
	out := dst[:0]
	for _, h := range f.hosts {
		out = append(out, ha.Member{Host: h, Alive: f.alive[h], Load: len(f.procs[h])})
	}
	return out
}

func (f *fakeAct) Census(t *sim.Task, host string, dst []ha.ProcStat) ([]ha.ProcStat, error) {
	f.asked = append(f.asked, host)
	if !f.alive[host] {
		return dst[:0], fmt.Errorf("fake: no census from %s", host)
	}
	pids := make([]int, 0, len(f.procs[host]))
	for pid := range f.procs[host] {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	out := dst[:0]
	for _, pid := range pids {
		p := f.procs[host][pid]
		out = append(out, ha.ProcStat{PID: p.pid, OldPID: p.oldPid})
	}
	return out, nil
}

func (f *fakeAct) Spawn(t *sim.Task, host, path string) (int, error) {
	if !f.alive[host] {
		return 0, fmt.Errorf("fake: %s is down", host)
	}
	f.nextPid++
	f.procs[host][f.nextPid] = &fakeProc{pid: f.nextPid, path: path}
	f.spawns++
	return f.nextPid, nil
}

func (f *fakeAct) Kill(t *sim.Task, host string, pid int) error {
	if f.moving[pid] {
		f.killedMoving++
	}
	if !f.alive[host] {
		return fmt.Errorf("fake: %s is down", host)
	}
	if _, ok := f.procs[host][pid]; !ok {
		return fmt.Errorf("fake: no pid %d on %s", pid, host)
	}
	delete(f.procs[host], pid)
	f.kills++
	return nil
}

func (f *fakeAct) Migrate(t *sim.Task, src string, pid int, dst string) (int, error) {
	start := t.Now()
	f.moving[pid] = true
	defer func() {
		delete(f.moving, pid)
		f.migLog = append(f.migLog, fakeMig{start, t.Now()})
	}()
	if f.migrateDelay > 0 {
		t.Sleep(f.migrateDelay)
	}
	if f.failMigrate[src] {
		if f.migrateErr != nil {
			return 0, f.migrateErr
		}
		return 0, fmt.Errorf("fake: migration from %s failed", src)
	}
	p, ok := f.procs[src][pid]
	if !ok || !f.alive[src] || !f.alive[dst] {
		return 0, fmt.Errorf("fake: cannot migrate %s/%d to %s", src, pid, dst)
	}
	delete(f.procs[src], pid)
	f.nextPid++
	f.procs[dst][f.nextPid] = &fakeProc{pid: f.nextPid, oldPid: pid, path: p.path}
	f.migrations++
	if f.loseNextReply {
		f.loseNextReply = false
		return 0, nil // committed; the reply with the new pid was lost
	}
	return f.nextPid, nil
}

func (f *fakeAct) Protect(t *sim.Task, host string, pid int, buddy string) error {
	if !f.alive[host] {
		return fmt.Errorf("fake: %s is down", host)
	}
	f.protected = append(f.protected, fakeProt{host: host, pid: pid, buddy: buddy})
	return nil
}

func (f *fakeAct) Recoveries(buddy string) []ha.Recovery { return f.recoveries[buddy] }

// crash kills a host and everything on it.
func (f *fakeAct) crash(host string) {
	f.alive[host] = false
	f.procs[host] = map[int]*fakeProc{}
}

// countOn tallies replicas per host for one program path.
func (f *fakeAct) countOn(path string) map[string]int {
	out := map[string]int{}
	for _, h := range f.hosts {
		for _, p := range f.procs[h] {
			if p.path == path {
				out[h]++
			}
		}
	}
	return out
}

func (f *fakeAct) total(path string) int {
	n := 0
	for _, c := range f.countOn(path) {
		n += c
	}
	return n
}

// harness boots an engine + controller and drives N rounds.
type harness struct {
	eng *sim.Engine
	f   *fakeAct
	c   *controller.Controller
	reg *obs.Registry
}

func newHarness(t *testing.T, cfg controller.Config, hosts ...string) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine(), f: newFake(hosts...), reg: obs.NewRegistry()}
	h.f.eng = h.eng
	h.c = controller.New(hosts[0], h.f, cfg, h.reg)
	h.c.Start(h.eng)
	return h
}

// rounds lets the controller loop run n more periods.
func (h *harness) rounds(t *testing.T, n int) {
	t.Helper()
	until := h.eng.Now() + sim.Time(sim.Duration(n)*h.c.Config().Period) + 1
	if err := h.eng.RunUntil(until); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
}

func TestSubmitConvergesSpread(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c", "d", "e")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 7}); err != nil {
		t.Fatal(err)
	}
	// 7 replicas at 4 actions/round: 2 rounds to spawn, 1 to see them live.
	h.rounds(t, 3)
	if !h.c.Converged() {
		t.Fatalf("not converged: %+v", h.c.Status())
	}
	on := h.f.countOn("/bin/web")
	if h.f.total("/bin/web") != 7 {
		t.Fatalf("want 7 replicas, have %v", on)
	}
	// Spread: 5 hosts, 7 replicas → per-host counts of 1 or 2.
	for host, n := range on {
		if n < 1 || n > 2 {
			t.Fatalf("spread violated: %s has %d (%v)", host, n, on)
		}
	}
	st, _ := h.c.App("web")
	if st.Live != 7 || st.Pending != 0 {
		t.Fatalf("status: %+v", st)
	}
}

func TestAntiAffinityAndAvoid(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c", "d", "e")
	spec := controller.AppSpec{
		Name: "db", Path: "/bin/db", Replicas: 3, AntiAffinity: true,
		Avoid: []string{"e"},
	}
	if err := h.c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	on := h.f.countOn("/bin/db")
	for host, n := range on {
		if n > 1 {
			t.Fatalf("anti-affinity violated: %s has %d", host, n)
		}
		if host == "e" {
			t.Fatalf("avoid violated: replica on e (%v)", on)
		}
	}
	// Tighten constraints under running replicas: now avoid "a" too. Any
	// replica on "a" must be migrated off, not killed.
	spec.Avoid = []string{"e", "a"}
	if err := h.c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 4)
	on = h.f.countOn("/bin/db")
	if on["a"] != 0 || on["e"] != 0 || h.f.total("/bin/db") != 3 {
		t.Fatalf("constraint move failed: %v", on)
	}
	if h.f.migrations == 0 && h.f.countOn("/bin/db")["a"] != 0 {
		t.Fatalf("expected migration off a")
	}
}

func TestBinpackPacksDensely(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c", "d")
	if err := h.c.Submit(controller.AppSpec{
		Name: "batch", Path: "/bin/batch", Replicas: 6, Policy: controller.PolicyBinpack,
	}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 4)
	on := h.f.countOn("/bin/batch")
	used := 0
	for _, n := range on {
		if n > 0 {
			used++
		}
	}
	if used > 2 {
		t.Fatalf("binpack spread over %d hosts: %v", used, on)
	}
}

func TestCrashRespawnsWithinBoundedRounds(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c", "d")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 8}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 4)
	if !h.c.Converged() {
		t.Fatalf("not converged before crash")
	}
	h.f.crash("d")
	// DeadGrace (2 periods) + respawn + sighting: bounded by 5 rounds.
	h.rounds(t, 5)
	if !h.c.Converged() {
		t.Fatalf("not reconverged after crash: %+v", h.c.Status())
	}
	if h.f.total("/bin/web") != 8 {
		t.Fatalf("want 8 replicas, have %v", h.f.countOn("/bin/web"))
	}
	if n := h.f.countOn("/bin/web")["d"]; n != 0 {
		t.Fatalf("dead host still counted: %d", n)
	}
}

func TestProtectedReplicaAdoptedFromGuardianLedger(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c")
	if err := h.c.Submit(controller.AppSpec{
		Name: "pay", Path: "/bin/pay", Replicas: 2, Protect: true, AntiAffinity: true,
	}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	if len(h.f.protected) == 0 {
		t.Fatalf("no protections registered")
	}
	// Crash a protected replica's host, then play the guardian: restart
	// the copy on the buddy and append the ledger entry.
	pr := h.f.protected[len(h.f.protected)-1]
	h.f.crash(pr.host)
	h.rounds(t, 1)
	h.f.nextPid++
	newPid := h.f.nextPid
	h.f.procs[pr.buddy][newPid] = &fakeProc{pid: newPid, oldPid: pr.pid, path: "/bin/pay"}
	h.f.recoveries[pr.buddy] = append(h.f.recoveries[pr.buddy], ha.Recovery{
		Source: pr.host, PID: pr.pid, NewPID: newPid, Seq: 1, At: h.eng.Now(),
	})
	spawnsBefore := h.f.spawns
	h.rounds(t, 3)
	if !h.c.Converged() {
		t.Fatalf("not reconverged after recovery: %+v", h.c.Status())
	}
	if h.f.spawns != spawnsBefore {
		t.Fatalf("controller respawned instead of adopting the recovery")
	}
	st, _ := h.c.App("pay")
	bound := false
	for _, r := range st.Replicas {
		bound = bound || (r.Host == pr.buddy && r.PID == newPid)
	}
	if !bound {
		t.Fatalf("adopted copy %s/%d not bound: %+v", pr.buddy, newPid, st.Replicas)
	}
}

// TestDrainEmptiesHostInWaves runs a drain with instant moves and with
// moves that outlast a reconcile period. Either way the host empties in
// rate-limited waves; with slow moves the rounds keep running while a
// wave is in flight, and each wave launches only after every move of the
// one before has finished, at the first round after.
func TestDrainEmptiesHostInWaves(t *testing.T) {
	for _, slow := range []bool{false, true} {
		t.Run(fmt.Sprintf("slow=%v", slow), func(t *testing.T) {
			h := newHarness(t, controller.Config{DrainWave: 2}, "a", "b", "c")
			period := h.c.Config().Period
			if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 9}); err != nil {
				t.Fatal(err)
			}
			h.rounds(t, 4)
			onC := h.f.countOn("/bin/web")["c"]
			if onC <= 2 {
				t.Fatalf("precondition: want more than one wave on c (%v)", h.f.countOn("/bin/web"))
			}
			if slow {
				h.f.migrateDelay = period * 3 / 2
			}
			if err := h.c.Drain("c"); err != nil {
				t.Fatal(err)
			}
			if err := h.c.Drain("c"); err == nil {
				t.Fatalf("double drain not rejected")
			}
			rounds0 := metric(h, "controller.rounds")
			h.rounds(t, 8)
			if got := metric(h, "controller.rounds") - rounds0; got != 8 {
				t.Fatalf("%d rounds ran in 8 periods: a round parked on a move", got)
			}
			ds, ok := h.c.DrainStatus("c")
			if !ok || !ds.Done {
				t.Fatalf("drain not done: %+v", ds)
			}
			if got := h.f.countOn("/bin/web")["c"]; got != 0 {
				t.Fatalf("drained host still has %d replicas", got)
			}
			if h.f.total("/bin/web") != 9 {
				t.Fatalf("lost replicas during drain: %v", h.f.countOn("/bin/web"))
			}
			if ds.Moved != onC || ds.Failed != 0 {
				t.Fatalf("drain accounting: moved=%d want %d failed=%d", ds.Moved, onC, ds.Failed)
			}
			// Waves were rate-limited: at DrainWave=2, onC replicas take
			// exactly ceil(onC/2) waves.
			if want := (onC + 1) / 2; ds.Waves != want {
				t.Fatalf("drain took %d waves, want %d", ds.Waves, want)
			}
			if ds.Makespan <= 0 {
				t.Fatalf("makespan not recorded: %+v", ds)
			}
			// Group the moves by launch instant, one group per wave.
			var starts []sim.Time
			lastEnd := map[sim.Time]sim.Time{}
			for _, m := range h.f.migLog {
				if _, ok := lastEnd[m.start]; !ok {
					starts = append(starts, m.start)
				}
				lastEnd[m.start] = max(lastEnd[m.start], m.end)
			}
			sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
			if len(starts) != ds.Waves {
				t.Fatalf("moves launched at %d instants, want one per wave (%d): %+v", len(starts), ds.Waves, h.f.migLog)
			}
			for i := 1; i < len(starts); i++ {
				settled := lastEnd[starts[i-1]]
				if starts[i] < settled {
					t.Fatalf("wave %d launched at %v, before wave %d settled at %v", i+1, starts[i], i, settled)
				}
				if sim.Duration(starts[i]-settled) > period {
					t.Fatalf("wave %d launched %v after wave %d settled, want the first round after", i+1,
						sim.Duration(starts[i]-settled), i)
				}
			}
			h.f.migrateDelay = 0
			// The cordon outlives the drain: new work avoids c until Uncordon.
			if err := h.c.Submit(controller.AppSpec{Name: "api", Path: "/bin/api", Replicas: 4}); err != nil {
				t.Fatal(err)
			}
			h.rounds(t, 3)
			if n := h.f.countOn("/bin/api")["c"]; n != 0 {
				t.Fatalf("cordoned host got %d new replicas", n)
			}
			h.c.Uncordon("c")
			if err := h.c.Submit(controller.AppSpec{Name: "api", Path: "/bin/api", Replicas: 8}); err != nil {
				t.Fatal(err)
			}
			h.rounds(t, 4)
			if n := h.f.countOn("/bin/api")["c"]; n == 0 {
				t.Fatalf("uncordoned host never reused: %v", h.f.countOn("/bin/api"))
			}
		})
	}
}

// TestConstraintMoveDoesNotParkRound: a constraint move that takes
// several periods is in flight while the rounds keep running and another
// app's deficit is spawned; the move lands afterwards.
func TestConstraintMoveDoesNotParkRound(t *testing.T) {
	for _, periods := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("delay=%dperiods", periods), func(t *testing.T) {
			h := newHarness(t, controller.Config{}, "a", "b", "c")
			spec := controller.AppSpec{Name: "db", Path: "/bin/db", Replicas: 1, Avoid: []string{"a", "b"}}
			if err := h.c.Submit(spec); err != nil {
				t.Fatal(err)
			}
			h.rounds(t, 2)
			if h.f.countOn("/bin/db")["c"] != 1 || !h.c.Converged() {
				t.Fatalf("precondition: db not live on c: %+v", h.c.Status())
			}
			h.f.migrateDelay = sim.Duration(periods) * h.c.Config().Period
			spec.Avoid = []string{"a", "c"}
			if err := h.c.Submit(spec); err != nil {
				t.Fatal(err)
			}
			if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 2, Avoid: []string{"c"}}); err != nil {
				t.Fatal(err)
			}
			rounds0 := metric(h, "controller.rounds")
			h.rounds(t, periods-1)
			if got := metric(h, "controller.rounds") - rounds0; got != int64(periods-1) {
				t.Fatalf("%d rounds ran in %d periods: a round parked on the move", got, periods-1)
			}
			st, _ := h.c.App("db")
			if st.Replicas[0].State != "moving" || st.Replicas[0].Host != "b" {
				t.Fatalf("db not moving to b: %+v", st.Replicas)
			}
			if got := h.f.total("/bin/web"); got != 2 {
				t.Fatalf("web has %d replicas while db moves, want 2", got)
			}
			h.rounds(t, 3)
			if !h.c.Converged() || h.f.countOn("/bin/db")["b"] != 1 {
				t.Fatalf("move never landed: %v %+v", h.f.countOn("/bin/db"), h.c.Status())
			}
			if got := metric(h, "controller.moves"); got != 1 {
				t.Fatalf("controller.moves = %d, want 1", got)
			}
		})
	}
}

// TestScaleDownSparesMovingReplicas: a scale-down issued while a drain
// wave is in flight kills only replicas no move owns, though the moving
// ones are the newest.
func TestScaleDownSparesMovingReplicas(t *testing.T) {
	h := newHarness(t, controller.Config{DrainWave: 2}, "a", "b", "c")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 6}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	if h.f.countOn("/bin/web")["c"] != 2 || !h.c.Converged() {
		t.Fatalf("precondition: want 2 live replicas on c: %v", h.f.countOn("/bin/web"))
	}
	h.f.migrateDelay = 3 * h.c.Config().Period
	if err := h.c.Drain("c"); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 1) // the wave launches
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 3}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 1) // the scale-down runs with both moves in flight
	if h.f.killedMoving != 0 {
		t.Fatalf("%d kill(s) aimed at a replica mid-move", h.f.killedMoving)
	}
	st, _ := h.c.App("web")
	moving := 0
	for _, r := range st.Replicas {
		if r.State == "moving" {
			moving++
		}
	}
	if moving != 2 || len(st.Replicas) != 3 {
		t.Fatalf("want the 2 moving replicas kept and 1 other: %+v", st.Replicas)
	}
	h.rounds(t, 4)
	ds, _ := h.c.DrainStatus("c")
	if !ds.Done || ds.Moved != 2 || ds.Failed != 0 {
		t.Fatalf("drain: %+v", ds)
	}
	if h.f.killedMoving != 0 || h.f.total("/bin/web") != 3 || !h.c.Converged() {
		t.Fatalf("after the drain: %d kills mid-move, %v, %+v", h.f.killedMoving, h.f.countOn("/bin/web"), h.c.Status())
	}
}

func TestDrainRetriesFailedMoves(t *testing.T) {
	h := newHarness(t, controller.Config{DrainWave: 4}, "a", "b")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 4}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	if h.f.countOn("/bin/web")["b"] == 0 {
		t.Fatalf("precondition: nothing on b")
	}
	h.f.failMigrate["b"] = true
	if err := h.c.Drain("b"); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 2)
	ds, _ := h.c.DrainStatus("b")
	if ds.Done || ds.Failed == 0 {
		t.Fatalf("expected failed moves while migd is broken: %+v", ds)
	}
	h.f.failMigrate["b"] = false
	h.rounds(t, 4)
	ds, _ = h.c.DrainStatus("b")
	if !ds.Done {
		t.Fatalf("drain never recovered: %+v", ds)
	}
	if h.f.countOn("/bin/web")["b"] != 0 || h.f.total("/bin/web") != 4 {
		t.Fatalf("bad final layout: %v", h.f.countOn("/bin/web"))
	}
}

func TestScaleDownKillsExcess(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 6}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	if got := h.f.total("/bin/web"); got != 2 {
		t.Fatalf("want 2 after scale-down, have %d", got)
	}
}

// TestStaleChainRelocation: a committed migration whose reply (carrying
// the new pid) is lost. Whether a drain or a constraint moved the
// replica, the controller relocates it by the OldPID the destination's
// census reports instead of declaring it dead, and ends with the same
// binding.
func TestStaleChainRelocation(t *testing.T) {
	for _, tc := range []struct {
		cause string
		start func(h *harness, spec controller.AppSpec) error
	}{
		{"drain", func(h *harness, spec controller.AppSpec) error {
			spec.Avoid = nil
			if err := h.c.Submit(spec); err != nil {
				return err
			}
			return h.c.Drain("c")
		}},
		{"constraint", func(h *harness, spec controller.AppSpec) error {
			spec.Avoid = []string{"c"}
			return h.c.Submit(spec)
		}},
	} {
		t.Run(tc.cause, func(t *testing.T) {
			h := newHarness(t, controller.Config{}, "a", "b", "c")
			spec := controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 1, Hosts: []string{"b", "c"}, Avoid: []string{"b"}}
			if err := h.c.Submit(spec); err != nil {
				t.Fatal(err)
			}
			h.rounds(t, 3)
			st, _ := h.c.App("web")
			if !h.c.Converged() || st.Replicas[0].Host != "c" {
				t.Fatalf("precondition: web not live on c: %+v", h.c.Status())
			}
			old := st.Replicas[0].PID
			h.f.loseNextReply = true
			if err := tc.start(h, spec); err != nil {
				t.Fatal(err)
			}
			h.rounds(t, 3)
			if !h.c.Converged() {
				t.Fatalf("stale replica never relocated: %+v", h.c.Status())
			}
			var successor int
			for pid, p := range h.f.procs["b"] {
				if p.oldPid == old {
					successor = pid
				}
			}
			st, _ = h.c.App("web")
			want := controller.ReplicaStatus{Slot: 0, Host: "b", PID: successor, State: "live"}
			if successor == 0 || len(st.Replicas) != 1 || st.Replicas[0] != want {
				t.Fatalf("bound to %+v, want %+v", st.Replicas, want)
			}
			if got := metric(h, "controller.adoptions"); got != 1 {
				t.Fatalf("adoptions = %d, want 1", got)
			}
			if got := metric(h, "controller.replicas_lost"); got != 0 {
				t.Fatalf("a committed move was judged lost %d time(s)", got)
			}
			if h.f.total("/bin/web") != 1 {
				t.Fatalf("replica count: %v", h.f.countOn("/bin/web"))
			}
		})
	}
}

// TestStaleReplicaRelocatedFromDestinationAnswer: a drain move commits
// but its reply (carrying the new pid) is lost. The controller finds the
// successor in the destination's census, by the OldPID it reports — and
// only there: another host the controller asks every round runs a decoy
// reporting the same OldPID, which must not be adopted.
func TestStaleReplicaRelocatedFromDestinationAnswer(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c")
	for _, spec := range []controller.AppSpec{
		{Name: "other", Path: "/bin/other", Replicas: 1, Hosts: []string{"a"}},
		{Name: "web", Path: "/bin/web", Replicas: 1, Hosts: []string{"b", "c"}, Avoid: []string{"b"}},
	} {
		if err := h.c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	h.rounds(t, 3)
	st, _ := h.c.App("web")
	if !h.c.Converged() || st.Replicas[0].Host != "c" {
		t.Fatalf("precondition: web not live on c: %+v", h.c.Status())
	}
	old := st.Replicas[0].PID
	h.f.procs["a"][999] = &fakeProc{pid: 999, oldPid: old, path: "/bin/decoy"}
	// The drain may move web to b only once the cordon is up.
	spec := controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 1, Hosts: []string{"b", "c"}}
	if err := h.c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	h.f.loseNextReply = true
	if err := h.c.Drain("c"); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	st, _ = h.c.App("web")
	var successor int
	for pid, p := range h.f.procs["b"] {
		if p.oldPid == old {
			successor = pid
		}
	}
	if !h.c.Converged() || successor == 0 || st.Replicas[0].Host != "b" || st.Replicas[0].PID != successor {
		t.Fatalf("stale replica bound to %+v, want b/%d: %+v", st.Replicas, successor, h.c.Status())
	}
	if got := h.reg.Scope("a").Counter("controller.adoptions").Value(); got != 1 {
		t.Fatalf("adoptions = %d, want 1", got)
	}
	if lost := h.reg.Scope("a").Counter("controller.replicas_lost").Value(); lost != 0 {
		t.Fatalf("a committed move was judged lost %d time(s)", lost)
	}
	if h.f.procs["a"][999] == nil {
		t.Fatal("the decoy was killed")
	}
}

// TestReplicaMissingFromAnswerRespawned: a live replica that exits is
// missing from its host's next answer. Pids are never reused, so the
// controller convicts it in that very round and respawns the slot.
func TestReplicaMissingFromAnswerRespawned(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 3}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	if !h.c.Converged() {
		t.Fatalf("not converged: %+v", h.c.Status())
	}
	st, _ := h.c.App("web")
	gone := st.Replicas[0]
	delete(h.f.procs[gone.Host], gone.PID)
	h.rounds(t, 1)
	scope := h.reg.Scope("a")
	if lost := scope.Counter("controller.replicas_lost").Value(); lost != 1 {
		t.Fatalf("replicas_lost = %d one round after the exit, want 1", lost)
	}
	if got := scope.Counter("controller.respawns").Value(); got != 1 {
		t.Fatalf("respawns = %d, want 1", got)
	}
	h.rounds(t, 1)
	if !h.c.Converged() || h.f.total("/bin/web") != 3 {
		t.Fatalf("not reconverged after the exit: %v, %+v", h.f.countOn("/bin/web"), h.c.Status())
	}
}

// TestCensusQueriesReplay: each round asks every alive replica host once,
// in replica order, so two runs of one scenario ask the same hosts in the
// same order.
func TestCensusQueriesReplay(t *testing.T) {
	run := func() []string {
		hosts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		h := newHarness(t, controller.Config{}, hosts...)
		if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 14}); err != nil {
			t.Fatal(err)
		}
		h.rounds(t, 6)
		if !h.c.Converged() {
			t.Fatalf("not converged: %+v", h.c.Status())
		}
		h.f.asked = nil
		h.rounds(t, 1)
		seen := map[string]bool{}
		for _, host := range h.f.asked {
			if seen[host] {
				t.Fatalf("%s asked twice in one round: %v", host, h.f.asked)
			}
			seen[host] = true
		}
		if len(seen) != len(hosts) {
			t.Fatalf("asked %v, want every replica host", h.f.asked)
		}
		return h.f.asked
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("census queries do not replay: %v vs %v", a, b)
	}
}

func TestFalseSuspicionOrphanReaped(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 3}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	// Partition c: not alive in the view, but its replica keeps running.
	before := h.f.countOn("/bin/web")["c"]
	if before == 0 {
		t.Fatalf("precondition: nothing on c")
	}
	h.f.alive["c"] = false // procs stay — a partition, not a crash
	h.rounds(t, 5)         // DeadGrace passes; controller respawns elsewhere
	if h.f.total("/bin/web") != 3+before {
		t.Fatalf("expected temporary duplicates, have %v", h.f.countOn("/bin/web"))
	}
	h.f.alive["c"] = true // partition heals; the old copy is an orphan now
	h.rounds(t, 3)
	if got := h.f.total("/bin/web"); got != 3 {
		t.Fatalf("orphan not reaped: %d copies (%v)", got, h.f.countOn("/bin/web"))
	}
	if !h.c.Converged() {
		t.Fatalf("not converged after heal: %+v", h.c.Status())
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []controller.AppSpec{
		{},
		{Name: "x"},
		{Name: "x", Path: "/bin/x"},
		{Name: "x", Path: "/bin/x", Replicas: -1},
		{Name: "x", Path: "/bin/x", Replicas: 1, Policy: "wat"},
		{Name: "x", Path: "/bin/x", Replicas: 1, MaxPerHost: -2},
		{Name: "x", Path: "/bin/x", Replicas: 1, AntiAffinity: true, MaxPerHost: 3},
	}
	h := newHarness(t, controller.Config{}, "a")
	for i, spec := range bad {
		if err := h.c.Submit(spec); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, spec)
		}
	}
	if err := h.c.Drain("nosuch"); err == nil {
		t.Fatalf("drain of unknown host accepted")
	}
}

func TestMetricsSurface(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	rows := h.reg.Snapshot()
	want := map[string]int64{}
	for _, r := range rows {
		if r.Host == "a" {
			want[r.Name] = r.Value
		}
	}
	if want["controller.spawns"] != 2 {
		t.Fatalf("spawns counter = %d, want 2 (%v)", want["controller.spawns"], want)
	}
	if want["controller.rounds"] == 0 {
		t.Fatalf("rounds counter missing")
	}
	if want["controller.replicas_live"] != 2 || want["controller.deviation"] != 0 {
		t.Fatalf("gauges: %v", want)
	}
}
