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

func newFake(hosts ...string) *fakeAct {
	f := &fakeAct{
		hosts: hosts, alive: map[string]bool{},
		procs:       map[string]map[int]*fakeProc{},
		recoveries:  map[string][]ha.Recovery{},
		nextPid:     100,
		failMigrate: map[string]bool{},
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
	if !h.c.Owns(pr.buddy, newPid) {
		t.Fatalf("adopted copy not owned")
	}
}

func TestDrainEmptiesHostInWaves(t *testing.T) {
	h := newHarness(t, controller.Config{DrainWave: 2}, "a", "b", "c")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 9}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 4)
	onC := h.f.countOn("/bin/web")["c"]
	if onC == 0 {
		t.Fatalf("precondition: nothing on c (%v)", h.f.countOn("/bin/web"))
	}
	if err := h.c.Drain("c"); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Drain("c"); err == nil {
		t.Fatalf("double drain not rejected")
	}
	h.rounds(t, 6)
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
	// Waves were rate-limited: at DrainWave=2, onC replicas need at least
	// ceil(onC/2) waves.
	if minWaves := (onC + 1) / 2; ds.Waves < minWaves {
		t.Fatalf("drain took %d waves, want >= %d", ds.Waves, minWaves)
	}
	if ds.Makespan <= 0 {
		t.Fatalf("makespan not recorded: %+v", ds)
	}
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

func TestReplaceRollsInWaves(t *testing.T) {
	h := newHarness(t, controller.Config{ReplaceWave: 2}, "a", "b", "c")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 6}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 4)
	var oldPids []int
	for _, h2 := range h.f.hosts {
		for pid := range h.f.procs[h2] {
			oldPids = append(oldPids, pid)
		}
	}
	if err := h.c.Replace("web"); err != nil {
		t.Fatal(err)
	}
	// 6 replicas at 2 per wave with a settle round between waves.
	h.rounds(t, 8)
	if !h.c.Converged() {
		t.Fatalf("replace never converged: %+v", h.c.Status())
	}
	if h.f.total("/bin/web") != 6 {
		t.Fatalf("replica count drifted: %v", h.f.countOn("/bin/web"))
	}
	old := map[int]bool{}
	for _, pid := range oldPids {
		old[pid] = true
	}
	for _, h2 := range h.f.hosts {
		for pid := range h.f.procs[h2] {
			if old[pid] {
				t.Fatalf("pid %d survived the replace", pid)
			}
		}
	}
	st, _ := h.c.App("web")
	if st.Gen != 1 {
		t.Fatalf("generation not bumped: %+v", st)
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
	if err := h.c.Remove("web"); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	if got := h.f.total("/bin/web"); got != 0 {
		t.Fatalf("want 0 after remove, have %d", got)
	}
	if _, ok := h.c.App("web"); ok {
		t.Fatalf("removed app still listed")
	}
}

func TestStaleChainRelocation(t *testing.T) {
	h := newHarness(t, controller.Config{}, "a", "b", "c")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 3}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	// A committed migration whose reply (carrying the new pid) is lost:
	// the controller must relocate the replica by the OldPID the
	// destination's census reports instead of declaring it dead.
	h.f.loseNextReply = true
	if err := h.c.Drain("c"); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 5)
	ds, _ := h.c.DrainStatus("c")
	if !ds.Done {
		t.Fatalf("drain with lost reply never finished: %+v", ds)
	}
	if !h.c.Converged() {
		t.Fatalf("stale replica never relocated: %+v", h.c.Status())
	}
	if h.f.total("/bin/web") != 3 {
		t.Fatalf("replica lost: %v", h.f.countOn("/bin/web"))
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
	if err := h.c.Replace("nosuch"); err == nil {
		t.Fatalf("replace of unknown app accepted")
	}
	if err := h.c.Remove("nosuch"); err == nil {
		t.Fatalf("remove of unknown app accepted")
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
