// Package scenario is the declarative chaos harness: a scenario value (a
// Go struct, trivially JSON-serializable) describes a cluster topology,
// workloads, a seeded fault schedule, and the invariants to hold; the
// runner boots the cluster, drives the schedule from a single driver
// task, and checks cluster-wide invariants after every event and at
// quiesce. The same seed replays the same run bit for bit, so a failing
// chaos run is reproduced by re-running its emitted artifact.
//
// The fault experiments A7 and A8 are scenario tables too: tables.go
// builds them, and migbench prints both figures from their results.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"procmig/internal/controller"
	"procmig/internal/load"
	"procmig/internal/sim"
)

// Scenario is one deterministic cluster run.
type Scenario struct {
	Name string `json:"name"`
	// Seed feeds the cluster engine PRNG; every drop, duplication, retry
	// and gossip choice derives from it.
	Seed  uint64   `json:"seed"`
	Hosts []string `json:"hosts"` // boot order; all Sun-2s with name tracking

	// HA, when non-nil, starts the availability control plane on every
	// host (heartbeats, membership, guardians).
	HA *HAConfig `json:"ha,omitempty"`

	// Controller, when non-nil, starts the declarative desired-state
	// controller on the named host (requires HA: its observed state is
	// the heartbeat view). Apps reach it through submit_app events.
	Controller *ControllerConfig `json:"controller,omitempty"`

	// Apps are the declarative applications submit_app events may hand
	// to the controller. Each app's program installs at /bin/app-<name>
	// on every host at boot, like workload programs.
	Apps []App `json:"apps,omitempty"`

	Workloads []Workload `json:"workloads"`

	// Load attaches SLI-plane request generators (internal/load) to
	// workloads: open-loop clients whose completion latency measures what
	// the fault schedule does to service, checked against each spec's slo
	// block by the quiesce invariant.
	Load []LoadSpec `json:"load,omitempty"`

	Events []Event `json:"events"`

	// Settle is slept after the last event, before the quiesce invariant
	// checks — chaos schedules that end on a revival or heal need the
	// gossip spread time before membership convergence is checkable.
	Settle sim.Duration `json:"settle,omitempty"`

	Invariants Invariants `json:"invariants,omitempty"`
}

// HAConfig mirrors the ha.Config fields a scenario may set.
type HAConfig struct {
	Interval     sim.Duration `json:"interval"`
	CkptInterval sim.Duration `json:"ckpt_interval,omitempty"`
}

// ControllerConfig mirrors the controller.Config fields a scenario may
// set (zero values take the controller's defaults).
type ControllerConfig struct {
	Host      string       `json:"host"`
	Period    sim.Duration `json:"period,omitempty"`
	DrainWave int          `json:"drain_wave,omitempty"`
}

// App is one declarative application for the controller: the desired
// replica count and placement constraints, plus which program the
// replicas run (the same hog/counterhog vocabulary as workloads).
// Unlike a Workload, an app's processes are spawned and tracked by the
// controller, not the runner — the runner only audits the ground truth
// against the spec (the replicas-converged invariant).
type App struct {
	Name       string `json:"name"`
	Prog       string `json:"prog"`
	TotalBytes int    `json:"total_bytes"`
	WSBytes    int    `json:"ws_bytes"`

	Replicas     int      `json:"replicas"`
	Policy       string   `json:"policy,omitempty"` // "spread" (default) or "binpack"
	AntiAffinity bool     `json:"anti_affinity,omitempty"`
	MaxPerHost   int      `json:"max_per_host,omitempty"`
	Hosts        []string `json:"hosts,omitempty"`
	Avoid        []string `json:"avoid,omitempty"`
	Protect      bool     `json:"protect,omitempty"`
}

// appBinPath is where an app's program installs on every host.
func appBinPath(name string) string { return "/bin/app-" + name }

// spec renders the app as the controller's submission type.
func (a App) spec() controller.AppSpec {
	return controller.AppSpec{
		Name:         a.Name,
		Path:         appBinPath(a.Name),
		Replicas:     a.Replicas,
		Policy:       a.Policy,
		AntiAffinity: a.AntiAffinity,
		MaxPerHost:   a.MaxPerHost,
		Hosts:        a.Hosts,
		Avoid:        a.Avoid,
		Protect:      a.Protect,
	}
}

// Workload is one long-running process the scenario tracks: spawned at
// driver start on Host, referenced from events by Name, and subject to
// the exactly-one-live-copy and conservation invariants for its whole
// pid lineage (migrations and recoveries included).
type Workload struct {
	Name string `json:"name"`
	Host string `json:"host"`
	// Prog selects the program: "hog" (the A6 working-set toucher) or
	// "counterhog" (the A8 variant with a progress counter in its first
	// data word, required by calibrate/await_recovery lost-work math).
	Prog       string `json:"prog"`
	Path       string `json:"path"` // /bin install path (default /bin/<name>)
	TotalBytes int    `json:"total_bytes"`
	WSBytes    int    `json:"ws_bytes"`
}

// LoadSpec is one seeded open-loop request generator aimed at a workload's
// pid lineage: requests arrive every ~Interval (jittered from the engine
// PRNG), queue while the target is frozen or between incarnations, then
// charge Service CPU through the target machine's run queue. The slo block
// (SLOP99 / SLODropped) is checked at quiesce when SLOP99 > 0: observed
// p99 must be ≤ SLOP99 µs and drops ≤ SLODropped.
type LoadSpec struct {
	Name       string       `json:"name"`
	Workload   string       `json:"workload"`
	Interval   sim.Duration `json:"interval"`
	Service    sim.Duration `json:"service"`
	Timeout    sim.Duration `json:"timeout,omitempty"` // abandon after this (0: never)
	Window     sim.Duration `json:"window,omitempty"`  // latency series window (0: 1s)
	SLOP99     sim.Duration `json:"slo_p99,omitempty"`
	SLODropped int64        `json:"slo_dropped,omitempty"`
}

// Event is one schedule step, executed in order by the driver task. Op
// selects the action; the other fields parameterize it (unused ones stay
// zero). Host fields accept the indirections "@home:<workload>" and
// "@buddy:<workload>", resolved against the runner's live bookkeeping at
// execution time — a chaos schedule can say "crash wherever hog1 lives
// now" without knowing where migrations have taken it.
//
//	sleep            Dur
//	await_ready      Workload — poll (1s) until its VM is mapped
//	calibrate        Workload, Dur — measure the counterhog's counting rate
//	fault_port       Port, Drop/Dup/Delay
//	fault_link       From, To, Drop/Dup/Delay
//	clear_faults
//	partition        Groups (netsim full cut between the named groups)
//	heal
//	crash_after      Host, Port, N — scripted crash on the Nth delivery
//	crash            Host — power failure (processes die with it)
//	revive           Host — fresh boot; with HA, rejoin with bumped incarnation
//	protect          Workload, To — guardian protection with To as buddy
//	await_ckpt       Workload, N — poll (100ms) until the buddy committed seq ≥ N
//	migrate          Workload, Host (client), To, Stream, Rounds, Chunks — and await
//	migrate_async    same, but don't await (thundering herds)
//	await_migrations barrier for every outstanding migrate_async
//	await_recovery   Workload, Dur — poll (250ms) until the buddy restarted it
//	counter_bump     Host, N — test-only: move a probe counter by N (negative
//	                 N deliberately violates counter monotonicity)
//	inject_dup       Workload, Host — test-only: start a second live copy
//	inject_kill      Workload — test-only: kill the live copy off the books
//	submit_app       App — hand the named app spec to the controller
//	drain_host       Host, Dur — rolling drain; blocks until the drain
//	                 reports done (Dur caps the wait, default 240s)
//	await_converged  Dur — poll (1s) until the controller reports every
//	                 app at desired state and every drain finished
//	controller_stop  stop the reconcile loop (sabotage helper: what the
//	                 replicas-converged negative test needs)
//	app_kill         App — test-only: kill one running replica off the
//	                 controller's books (deliberate under-replication)
type Event struct {
	Op       string       `json:"op"`
	Workload string       `json:"workload,omitempty"`
	App      string       `json:"app,omitempty"`
	Host     string       `json:"host,omitempty"`
	From     string       `json:"from,omitempty"`
	To       string       `json:"to,omitempty"`
	Port     int          `json:"port,omitempty"`
	N        int          `json:"n,omitempty"`
	Dur      sim.Duration `json:"dur,omitempty"`
	Drop     float64      `json:"drop,omitempty"`
	Dup      float64      `json:"dup,omitempty"`
	Delay    sim.Duration `json:"delay,omitempty"`
	Groups   [][]string   `json:"groups,omitempty"`
	Stream   bool         `json:"stream,omitempty"`
	Rounds   string       `json:"rounds,omitempty"`
	Chunks   int          `json:"chunks,omitempty"`
}

// Invariants selects which checks run. The zero value runs everything
// applicable (membership convergence needs HA; lost-work accounting needs
// a calibrated counterhog).
type Invariants struct {
	SkipLiveCopy     bool `json:"skip_live_copy,omitempty"`
	SkipConservation bool `json:"skip_conservation,omitempty"`
	SkipSplitBrain   bool `json:"skip_split_brain,omitempty"`
	SkipMembership   bool `json:"skip_membership,omitempty"`
	SkipCounters     bool `json:"skip_counters,omitempty"`
	SkipReplicas     bool `json:"skip_replicas,omitempty"`
	SkipSLO          bool `json:"skip_slo,omitempty"`
}

// Violation is one invariant failure: which invariant, after which event
// (-1: the quiesce checks), when, and what the checker saw.
type Violation struct {
	Invariant  string   `json:"invariant"`
	EventIndex int      `json:"event_index"`
	At         sim.Time `json:"at"`
	Detail     string   `json:"detail"`
}

func (v Violation) String() string {
	where := fmt.Sprintf("event %d", v.EventIndex)
	if v.EventIndex < 0 {
		where = "quiesce"
	}
	return fmt.Sprintf("%s violated at %s (t=%d): %s", v.Invariant, where, v.At, v.Detail)
}

// MigrationOutcome is the result of one migrate/migrate_async event.
type MigrationOutcome struct {
	Workload  string       `json:"workload"`
	From      string       `json:"from"`
	To        string       `json:"to"`
	Committed bool         `json:"committed"`
	Start     sim.Time     `json:"start"`  // when the rmigrate client was spawned
	Total     sim.Duration `json:"total"`  // rmigrate real time
	Freeze    sim.Duration `json:"freeze"` // source kernel's dump window
}

// RecoveryOutcome is the result of one await_recovery event.
type RecoveryOutcome struct {
	Workload    string       `json:"workload"`
	Buddy       string       `json:"buddy"`
	Checkpoints int          `json:"checkpoints"` // committed before the crash
	Recovery    sim.Duration `json:"recovery"`    // crash → restored copy live
	LostWork    sim.Duration `json:"lost_work"`   // replayed work, from the counter gap
	Resumed     bool         `json:"resumed"`
}

// WorkloadOutcome is one workload's state at quiesce.
type WorkloadOutcome struct {
	LiveCopies   int    `json:"live_copies"`
	Host         string `json:"host,omitempty"` // where the live copy ended up
	Migrated     bool   `json:"migrated"`       // the live copy is a migrated/restored one
	ExpectedLive bool   `json:"expected_live"`
}

// AppOutcome is one controller app's ground truth at quiesce: how many
// replica processes actually run, and where — counted from the kernels,
// not from the controller's own bookkeeping.
type AppOutcome struct {
	Desired int            `json:"desired"`
	Running int            `json:"running"`
	Hosts   map[string]int `json:"hosts,omitempty"` // running copies per host
}

// LoadOutcome is one generator's client-visible result at quiesce: the
// cumulative latency/loss stats plus the per-phase blame table for every
// SLO-breaching request.
type LoadOutcome struct {
	load.Stats
	Blame []load.Blame `json:"blame,omitempty"`
}

// Result is everything a scenario run produced.
type Result struct {
	Name       string                      `json:"name"`
	Seed       uint64                      `json:"seed"`
	Events     int                         `json:"events"` // events executed
	Violations []Violation                 `json:"violations,omitempty"`
	Migrations []MigrationOutcome          `json:"migrations,omitempty"`
	Recoveries []RecoveryOutcome           `json:"recoveries,omitempty"`
	Workloads  map[string]*WorkloadOutcome `json:"workloads"`
	Apps       map[string]*AppOutcome      `json:"apps,omitempty"`
	Load       map[string]*LoadOutcome     `json:"load,omitempty"`
}

// Passed reports whether every invariant held.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// FirstViolation returns the first invariant failure, or nil.
func (r *Result) FirstViolation() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}

// Encode renders the scenario as indented JSON.
func (sc *Scenario) Encode() ([]byte, error) { return json.MarshalIndent(sc, "", "  ") }

// Decode parses a JSON scenario. Unknown fields are rejected loudly — a
// typo'd op parameter silently decoding to the zero value would turn a
// chaos schedule into a quieter one than its author wrote.
func Decode(raw []byte) (*Scenario, error) {
	sc := &Scenario{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return sc, nil
}

// HogSrc is the A6 memory hog: a data segment of totalBytes whose first
// wsBytes are rewritten continuously (one store per 1 KiB page per pass),
// modelling a process with a large image but a smaller active working set —
// the case pre-copy is designed for.
func HogSrc(totalBytes, wsBytes int) string {
	return fmt.Sprintf(`
start:  movi r2, ws
        movi r3, 7
loop:   str  r2, r3
        addi r2, 1024
        cmpi r2, wsend
        jlt  loop
        movi r2, ws
        jmp  loop
        .data
ws:     .space %d
wsend:  .space %d
`, wsBytes, totalBytes-wsBytes)
}

// CounterHogSrc is the hog with a progress counter: the first data word
// is incremented once per working-set page touched, so an outside
// observer can read how far the program has gotten — the lost-work math
// in await_recovery depends on it.
func CounterHogSrc(totalBytes, wsBytes int) string {
	return fmt.Sprintf(`
start:  movi r2, ws
        movi r3, 7
loop:   ld   r4, ctr
        addi r4, 1
        st   r4, ctr
        str  r2, r3
        addi r2, 1024
        cmpi r2, wsend
        jlt  loop
        movi r2, ws
        jmp  loop
        .data
ctr:    .space 4
ws:     .space %d
wsend:  .space %d
`, wsBytes, totalBytes-wsBytes)
}

// progSrc resolves a workload's program source.
func progSrc(w Workload) (string, error) {
	return srcFor("workload "+w.Name, w.Prog, w.TotalBytes, w.WSBytes)
}

// appSrc resolves an app's program source.
func appSrc(a App) (string, error) {
	return srcFor("app "+a.Name, a.Prog, a.TotalBytes, a.WSBytes)
}

func srcFor(owner, prog string, totalBytes, wsBytes int) (string, error) {
	switch prog {
	case "hog":
		return HogSrc(totalBytes, wsBytes), nil
	case "counterhog":
		return CounterHogSrc(totalBytes, wsBytes), nil
	default:
		return "", fmt.Errorf("scenario: %s: unknown prog %q", owner, prog)
	}
}

// binPath resolves a workload's install path.
func binPath(w Workload) string {
	if w.Path != "" {
		return w.Path
	}
	return "/bin/" + w.Name
}
