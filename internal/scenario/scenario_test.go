package scenario_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"procmig/internal/scenario"
	"procmig/internal/sim"
)

// --- A7/A8 golden pins --------------------------------------------------------

// The A7 and A8 tables' seed-1 outcomes, cell by cell in table order,
// exact to the simulated microsecond: the numbers behind migbench -fig a7
// and -fig a8, plus when each migration started. A change to a table's
// boot order, sleeps, poll cadences or PRNG draws moves one of these
// numbers; a change that means to move them must re-pin them and say why.
type a7Pin struct {
	name                string
	committed, migrated bool
	live                int
	start               sim.Time
	freeze, total       sim.Duration
}

type a8Pin struct {
	name               string
	ckpts              int
	resumed            bool
	live               int
	recovery, lostWork sim.Duration
}

var (
	a7Golden = []a7Pin{
		{"a7-64K/8K-drop0-crashfalse", true, true, 1, 3000000, 816950, 2662477},
		{"a7-64K/8K-drop5-crashfalse", true, true, 1, 3000000, 1940134, 7785657},
		{"a7-64K/8K-drop10-crashfalse", true, true, 1, 3000000, 816950, 12276015},
		{"a7-64K/8K-drop20-crashfalse", true, true, 1, 3000000, 820250, 24665777},
		{"a7-64K/8K-drop0-crashtrue", false, false, 1, 3000000, 0, 74790684},
		{"a7-256K/16K-drop0-crashfalse", true, true, 1, 4000000, 2194566, 8527205},
		{"a7-256K/16K-drop5-crashfalse", true, true, 1, 4000000, 2194566, 24527205},
		{"a7-256K/16K-drop10-crashfalse", true, true, 1, 4000000, 2194566, 36527205},
		{"a7-256K/16K-drop20-crashfalse", true, true, 1, 4000000, 2196358, 65288997},
		{"a7-256K/16K-drop0-crashtrue", false, false, 1, 4000000, 0, 74777564},
	}
	a8Golden = []a8Pin{
		{"a8-iv2.000s-drop0", 2, true, 1, 4500000, 979993},
		{"a8-iv2.000s-drop10", 2, true, 1, 4500000, 959998},
		{"a8-iv2.000s-drop20", 2, true, 1, 4250000, 939996},
		{"a8-iv5.000s-drop0", 2, true, 1, 4000000, 2479999},
		{"a8-iv5.000s-drop10", 2, true, 1, 3250000, 2319994},
		{"a8-iv5.000s-drop20", 2, true, 1, 2750000, 2459996},
	}
)

// runGolden runs every cell of a table as a parallel subtest and hands
// each passing result to check with the cell's index.
func runGolden(t *testing.T, tables []*scenario.Scenario, pins int, check func(*testing.T, int, *scenario.Result)) {
	if len(tables) != pins {
		t.Fatalf("%d table cells, %d pins", len(tables), pins)
	}
	for i, sc := range tables {
		t.Run(strings.ReplaceAll(sc.Name, "/", "-"), func(t *testing.T) {
			t.Parallel()
			res, err := scenario.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed() {
				t.Fatal(res.FirstViolation())
			}
			check(t, i, res)
		})
	}
}

// TestA7TableGolden runs a chaos scenario before the table: a cell's wire
// sizes, and with them its timings, must not depend on what the process
// ran before it. The chaos run sends the daemons' gob messages in its own
// order, and it goes first in the package, so no other scenario has run
// in the process before it.
func TestA7TableGolden(t *testing.T) {
	res, err := scenario.Run(scenario.Chaos(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatal(res.FirstViolation())
	}
	tables := scenario.A7Tables(1)
	runGolden(t, tables, len(a7Golden), func(t *testing.T, i int, res *scenario.Result) {
		if len(res.Migrations) != 1 {
			t.Fatalf("%d migrations, want 1", len(res.Migrations))
		}
		mig, wl := res.Migrations[0], res.Workloads["hog"]
		got := a7Pin{tables[i].Name, mig.Committed, wl.Migrated, wl.LiveCopies, mig.Start, mig.Freeze, mig.Total}
		if got != a7Golden[i] {
			t.Errorf("got    %#v\npinned %#v", got, a7Golden[i])
		}
	})
}

func TestA8TableGolden(t *testing.T) {
	tables := scenario.A8Tables(1)
	runGolden(t, tables, len(a8Golden), func(t *testing.T, i int, res *scenario.Result) {
		if len(res.Recoveries) != 1 {
			t.Fatalf("%d recoveries, want 1", len(res.Recoveries))
		}
		rec, wl := res.Recoveries[0], res.Workloads["hog"]
		got := a8Pin{tables[i].Name, rec.Checkpoints, rec.Resumed, wl.LiveCopies, rec.Recovery, rec.LostWork}
		if got != a8Golden[i] {
			t.Errorf("got    %#v\npinned %#v", got, a8Golden[i])
		}
	})
}

// --- chaos smoke --------------------------------------------------------------

// TestChaosSeeds runs the generated chaos scenario for a handful of seeds:
// every invariant must hold on every run. Seeds run as parallel subtests —
// each builds its own cluster.
func TestChaosSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			res, err := scenario.Run(scenario.Chaos(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed() {
				t.Fatal(res.FirstViolation())
			}
			if len(res.Migrations) == 0 {
				t.Error("no migrations ran — generator produced a dull schedule")
			}
			if len(res.Recoveries) != 1 {
				t.Errorf("%d recoveries, want exactly 1", len(res.Recoveries))
			}
		})
	}
}

// TestChaosDeterministic: a fixed seed reproduces the identical result.
// The two runs go at once, so mutable state the two clusters wrongly
// share can show up as a divergence.
func TestChaosDeterministic(t *testing.T) {
	var res [2]*scenario.Result
	t.Run("runs", func(t *testing.T) {
		for i := range res {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				r, err := scenario.Run(scenario.Chaos(7))
				if err != nil {
					t.Fatal(err)
				}
				res[i] = r
			})
		}
	})
	if !t.Failed() && !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", res[0], res[1])
	}
}

// TestScenarioJSONRoundTrip: a chaos scenario survives Encode/Decode —
// the artifact format carries the full schedule.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := scenario.Chaos(42)
	raw, err := sc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := scenario.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatal("scenario did not survive the JSON round trip")
	}
}

// --- negative tests: each invariant must catch its deliberate violation ------

// negBase is a quiet two-workload cluster the injections land on.
func negBase() *scenario.Scenario {
	return &scenario.Scenario{
		Name:  "neg",
		Seed:  5,
		Hosts: []string{"alpha", "beta", "gamma"},
		Workloads: []scenario.Workload{
			{Name: "hog", Host: "alpha", Prog: "hog", TotalBytes: 32 << 10, WSBytes: 4 << 10},
		},
		Events: []scenario.Event{
			{Op: "await_ready", Workload: "hog"},
			{Op: "sleep", Dur: 2 * sim.Second},
		},
	}
}

// expectViolation runs the scenario and asserts the first violation names
// the right invariant at the right event index.
func expectViolation(t *testing.T, sc *scenario.Scenario, invariant string, eventIndex int) *scenario.Result {
	t.Helper()
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	v := res.FirstViolation()
	if v == nil {
		t.Fatalf("%s: expected a %s violation, run passed", sc.Name, invariant)
	}
	if v.Invariant != invariant || v.EventIndex != eventIndex {
		t.Fatalf("%s: first violation %v, want %s at event %d", sc.Name, v, invariant, eventIndex)
	}
	if eventIndex >= 0 && res.Events != eventIndex+1 {
		t.Errorf("%s: runner executed %d events, want it to stop right after event %d",
			sc.Name, res.Events, eventIndex)
	}
	return res
}

func TestNegativeLiveCopy(t *testing.T) {
	sc := negBase()
	sc.Name = "neg-live-copy"
	sc.Events = append(sc.Events, scenario.Event{Op: "inject_dup", Workload: "hog", Host: "beta"})
	expectViolation(t, sc, "live-copy", 2)
}

func TestNegativeConservation(t *testing.T) {
	sc := negBase()
	sc.Name = "neg-conservation"
	sc.Events = append(sc.Events, scenario.Event{Op: "inject_kill", Workload: "hog"})
	expectViolation(t, sc, "conservation", 2)
}

func TestNegativeCounterMonotonic(t *testing.T) {
	sc := negBase()
	sc.Name = "neg-counter"
	// Two bumps: the first registers the probe counter with the checker,
	// the second moves it backwards.
	sc.Events = append(sc.Events,
		scenario.Event{Op: "counter_bump", Host: "alpha", N: 10},
		scenario.Event{Op: "counter_bump", Host: "alpha", N: -5},
	)
	expectViolation(t, sc, "counter-monotonic", 3)
}

// TestNegativeSplitBrain: a full partition between a protected process
// and its buddy defeats arbitration — the probe cannot reach the live
// source, the guardian restarts it anyway, and the checker must call the
// resulting second copy a split brain.
func TestNegativeSplitBrain(t *testing.T) {
	sc := &scenario.Scenario{
		Name:  "neg-split-brain",
		Seed:  5,
		Hosts: []string{"alpha", "beta", "gamma"},
		HA:    &scenario.HAConfig{Interval: sim.Second, CkptInterval: 2 * sim.Second},
		Workloads: []scenario.Workload{
			{Name: "hog", Host: "alpha", Prog: "counterhog", TotalBytes: 32 << 10, WSBytes: 4 << 10},
		},
		Events: []scenario.Event{
			{Op: "await_ready", Workload: "hog"},
			{Op: "protect", Workload: "hog", To: "beta"},
			{Op: "await_ckpt", Workload: "hog", N: 2},
			{Op: "partition", Groups: [][]string{{"alpha"}, {"beta", "gamma"}}},
			{Op: "sleep", Dur: 45 * sim.Second},
		},
		// The split-brain verdict is the point; the duplicate copy and the
		// divergent membership views are its side effects.
		Invariants: scenario.Invariants{SkipLiveCopy: true, SkipMembership: true},
	}
	expectViolation(t, sc, "split-brain", 4)
}

// TestNegativeMembership: a crash with no settle time leaves the
// survivors still believing the dead host is alive at quiesce.
func TestNegativeMembership(t *testing.T) {
	sc := &scenario.Scenario{
		Name:  "neg-membership",
		Seed:  5,
		Hosts: []string{"alpha", "beta", "gamma"},
		HA:    &scenario.HAConfig{Interval: sim.Second},
		Events: []scenario.Event{
			{Op: "sleep", Dur: 10 * sim.Second}, // converge first
			{Op: "crash", Host: "gamma"},
		},
	}
	expectViolation(t, sc, "membership", -1)
}

// --- replay artifact ----------------------------------------------------------

// TestArtifactReplay: a failing run emits an artifact that replays to the
// same violation through the JSON round trip.
func TestArtifactReplay(t *testing.T) {
	sc := negBase()
	sc.Name = "neg-artifact"
	sc.Events = append(sc.Events, scenario.Event{Op: "inject_dup", Workload: "hog", Host: "beta"})
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	art := scenario.NewArtifact(sc, res)
	if art == nil {
		t.Fatal("failing run produced no artifact")
	}
	path := filepath.Join(t.TempDir(), "replay.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := scenario.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := res.FirstViolation(), res2.FirstViolation()
	if v2 == nil || v1.Invariant != v2.Invariant || v1.EventIndex != v2.EventIndex || v1.At != v2.At {
		t.Fatalf("replayed violation %v, original %v", v2, v1)
	}
	if scenario.NewArtifact(sc, res2) == nil {
		t.Fatal("replay of a failing artifact passed")
	}
}

// --- controller ops -----------------------------------------------------------

// ctlBase is a four-host cluster with a controller on alpha and one
// three-replica app ready to submit.
func ctlBase() *scenario.Scenario {
	return &scenario.Scenario{
		Name:       "ctl",
		Seed:       5,
		Hosts:      []string{"alpha", "beta", "gamma", "delta"},
		HA:         &scenario.HAConfig{Interval: sim.Second},
		Controller: &scenario.ControllerConfig{Host: "alpha", Period: 2 * sim.Second},
		Apps: []scenario.App{
			{Name: "web", Prog: "hog", TotalBytes: 32 << 10, WSBytes: 4 << 10, Replicas: 3},
		},
	}
}

// TestScenarioControllerDrain: submit an app, converge, drain a host the
// app landed on, and hold every invariant — including the new
// replicas-converged check — at quiesce. The drained host must end with
// zero replicas while the count stays at desired.
func TestScenarioControllerDrain(t *testing.T) {
	sc := ctlBase()
	sc.Name = "ctl-drain"
	// One replica per host, four hosts, three replicas: whichever host
	// stays free is the headroom the drain needs to be feasible.
	sc.Apps[0].AntiAffinity = true
	sc.Events = []scenario.Event{
		{Op: "sleep", Dur: 5 * sim.Second}, // membership converges
		{Op: "submit_app", App: "web"},
		{Op: "await_converged"},
		{Op: "drain_host", Host: "delta"},
		{Op: "await_converged"},
	}
	sc.Settle = 5 * sim.Second
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatal(res.FirstViolation())
	}
	ao := res.Apps["web"]
	if ao == nil || ao.Running != 3 {
		t.Fatalf("app outcome = %+v, want 3 running", ao)
	}
	if ao.Hosts["delta"] != 0 {
		t.Fatalf("drained host still runs %d replicas: %+v", ao.Hosts["delta"], ao.Hosts)
	}
}

// TestNegativeReplicasConverged: with the reconcile loop stopped, a
// replica killed off the books stays dead — the replicas-converged
// invariant must call out the deficit at quiesce.
func TestNegativeReplicasConverged(t *testing.T) {
	sc := ctlBase()
	sc.Name = "neg-replicas"
	sc.Events = []scenario.Event{
		{Op: "sleep", Dur: 5 * sim.Second},
		{Op: "submit_app", App: "web"},
		{Op: "await_converged"},
		{Op: "controller_stop"},
		{Op: "app_kill", App: "web"},
		{Op: "sleep", Dur: 3 * sim.Second},
	}
	expectViolation(t, sc, "replicas-converged", -1)
}

// TestControllerOpValidation: controller ops without a controller, apps
// without a controller, and unknown app names are all rejected before
// the cluster boots.
func TestControllerOpValidation(t *testing.T) {
	sc := negBase()
	sc.Events = append(sc.Events, scenario.Event{Op: "drain_host", Host: "beta"})
	if _, err := scenario.Run(sc); err == nil {
		t.Fatal("drain_host without a controller accepted")
	}

	sc2 := ctlBase()
	sc2.Events = []scenario.Event{{Op: "submit_app", App: "nope"}}
	if _, err := scenario.Run(sc2); err == nil {
		t.Fatal("submit_app with unknown app accepted")
	}

	sc3 := ctlBase()
	sc3.HA = nil
	sc3.Events = []scenario.Event{{Op: "submit_app", App: "web"}}
	if _, err := scenario.Run(sc3); err == nil {
		t.Fatal("controller without ha accepted")
	}

	sc4 := negBase()
	sc4.Apps = []scenario.App{{Name: "web", Prog: "hog", Replicas: 1}}
	if _, err := scenario.Run(sc4); err == nil {
		t.Fatal("apps without a controller accepted")
	}

	sc5 := ctlBase()
	sc5.Apps[0].Replicas = 0
	sc5.Events = []scenario.Event{{Op: "submit_app", App: "web"}}
	if _, err := scenario.Run(sc5); err == nil {
		t.Fatal("zero-replica app spec accepted")
	}
}

// TestDecodeRejectsUnknownFields: a typo'd field in a scenario file must
// fail the decode, not silently drop a parameter of the schedule.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	good := []byte(`{"name":"x","seed":1,"hosts":["a"],"workloads":null,"events":[{"op":"sleep","dur":5}]}`)
	if _, err := scenario.Decode(good); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []byte(`{"name":"x","seed":1,"hosts":["a"],"events":[{"op":"sleep","duur":5}]}`)
	if _, err := scenario.Decode(bad); err == nil {
		t.Fatal("unknown event field accepted")
	}
	bad2 := []byte(`{"name":"x","hosts":["a"],"controler":{"host":"a"},"events":[]}`)
	if _, err := scenario.Decode(bad2); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}

// TestUnknownOpFailsLoudly: schedule typos must be rejected before the
// cluster even boots, not silently skipped.
func TestUnknownOpFailsLoudly(t *testing.T) {
	sc := negBase()
	sc.Events = append(sc.Events, scenario.Event{Op: "mitgrate", Workload: "hog", To: "beta"})
	if _, err := scenario.Run(sc); err == nil {
		t.Fatal("unknown op accepted")
	}
	sc2 := negBase()
	sc2.Events = []scenario.Event{{Op: "protect", Workload: "hog", To: "beta"}}
	if _, err := scenario.Run(sc2); err == nil {
		t.Fatal("protect without ha accepted")
	}
}
