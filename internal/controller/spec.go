// Package controller is the cluster's declarative desired-state layer:
// operators submit app specs ("app X: N replicas of program P, spread
// placement, anti-affinity, host constraints") and a reconcile loop
// continuously diffs desired against observed state and converges the
// cluster through the existing migration machinery — spawning missing
// replicas, migrating misplaced ones, killing excess ones, and replacing
// dead ones (via guardd protection when the app asks for it). It also
// owns host drains, the rolling operation a fleet needs for maintenance:
// migrate everything off a host, rate-limited in waves with a
// concurrency cap and a settle barrier between waves.
//
// The controller turns the paper's one-shot operator-driven `migrate`
// verb into a continuously applied policy, in the mold of the
// Flynn/Kubernetes desired-state/reconcile split: desired state is a
// plain data structure the operator edits; observed state is rebuilt
// every round from the disseminated heartbeat view (membership and
// load) plus the census each replica's host answers when asked; and
// every action rides the transactional migd verbs, so a crashed or
// raced action can never lose a replica — at worst it is retried or
// healed a round later. Constraint moves and drain evacuations share one
// move path, and no round waits on a migration.
//
// Like the Balancer and NightScheduler, the controller is
// message-passing-honest about what it knows: replica liveness, host
// liveness and load come from the heartbeat view and the hosts' census
// answers, never from peeking at peer kernels. Actions go through an Actuator interface so the policy
// core stays independent of the cluster assembly (and testable against
// fakes).
package controller

import (
	"fmt"

	"procmig/internal/sim"
)

// Placement policies.
const (
	// PolicySpread places each new replica on the candidate host carrying
	// the fewest replicas of the app (ties: fewest controller-owned
	// replicas, then lowest load, then name). The default.
	PolicySpread = "spread"
	// PolicyBinpack packs replicas onto the candidate host already
	// carrying the most controller-owned replicas (subject to MaxPerHost
	// and anti-affinity), so the fleet concentrates on few hosts and the
	// rest stay idle — the layout night-time batch policies want.
	PolicyBinpack = "binpack"
)

// AppSpec is one declarative application: what the operator wants true of
// the cluster, not how to make it true. JSON-able so scenarios and
// operators can submit specs as data.
type AppSpec struct {
	Name string `json:"name"`
	// Path is the program every replica runs, installed at the same path
	// on every machine (the paper's /bin convention).
	Path     string `json:"path"`
	Replicas int    `json:"replicas"`
	// Policy is PolicySpread (default when empty) or PolicyBinpack.
	Policy string `json:"policy,omitempty"`
	// AntiAffinity caps the app at one replica per host.
	AntiAffinity bool `json:"anti_affinity,omitempty"`
	// MaxPerHost caps replicas of this app on one host (0 = no cap;
	// AntiAffinity is the special case MaxPerHost=1).
	MaxPerHost int `json:"max_per_host,omitempty"`
	// Hosts, when non-empty, is an allowlist: replicas may only be placed
	// on these hosts. Avoid is a denylist applied on top.
	Hosts []string `json:"hosts,omitempty"`
	Avoid []string `json:"avoid,omitempty"`
	// Protect registers every replica with guardd for buddy
	// delta-checkpoints: a crashed host's replicas are restarted by their
	// buddy guardian (arbitrated, exactly-once) and the controller adopts
	// the restored copy instead of blindly respawning.
	Protect bool `json:"protect,omitempty"`
}

// Validate rejects malformed specs loudly, before they reach the
// reconcile loop.
func (s *AppSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("controller: app spec with empty name")
	}
	if s.Path == "" {
		return fmt.Errorf("controller: app %q: empty program path", s.Name)
	}
	if s.Replicas <= 0 {
		return fmt.Errorf("controller: app %q: replicas must be positive, got %d", s.Name, s.Replicas)
	}
	switch s.Policy {
	case "", PolicySpread, PolicyBinpack:
	default:
		return fmt.Errorf("controller: app %q: unknown policy %q (want %q or %q)",
			s.Name, s.Policy, PolicySpread, PolicyBinpack)
	}
	if s.MaxPerHost < 0 {
		return fmt.Errorf("controller: app %q: negative max_per_host", s.Name)
	}
	if s.AntiAffinity && s.MaxPerHost > 1 {
		return fmt.Errorf("controller: app %q: anti_affinity contradicts max_per_host=%d",
			s.Name, s.MaxPerHost)
	}
	return nil
}

// maxPerHost resolves the effective per-host cap (0 = unlimited).
func (s *AppSpec) maxPerHost() int {
	if s.AntiAffinity {
		return 1
	}
	return s.MaxPerHost
}

// allowed reports whether the spec's host constraints admit host.
func (s *AppSpec) allowed(host string) bool {
	for _, a := range s.Avoid {
		if a == host {
			return false
		}
	}
	if len(s.Hosts) == 0 {
		return true
	}
	for _, h := range s.Hosts {
		if h == host {
			return true
		}
	}
	return false
}

// ReplicaStatus is one replica's row in a status report.
type ReplicaStatus struct {
	Slot  int    `json:"slot"`
	Host  string `json:"host"`
	PID   int    `json:"pid"`
	State string `json:"state"` // "pending", "live", "moving"
}

// AppStatus is one app's observed-vs-desired summary.
type AppStatus struct {
	Name     string          `json:"name"`
	Desired  int             `json:"desired"`
	Live     int             `json:"live"`
	Pending  int             `json:"pending"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Converged reports whether the app needs no further reconciliation.
func (a *AppStatus) Converged() bool { return a.Live == a.Desired && a.Pending == 0 }

// DrainStatus is one rolling host drain's progress.
type DrainStatus struct {
	Host      string       `json:"host"`
	StartedAt sim.Time     `json:"started_at"`
	Waves     int          `json:"waves"`
	Moved     int          `json:"moved"`
	Failed    int          `json:"failed"`
	Remaining int          `json:"remaining"` // controller-owned replicas still on the host
	Done      bool         `json:"done"`
	Makespan  sim.Duration `json:"makespan"` // start → empty (0 until done)
}

// Status is the whole controller's state at one instant.
type Status struct {
	Round  int64         `json:"round"`
	Apps   []AppStatus   `json:"apps"`
	Drains []DrainStatus `json:"drains,omitempty"`
}

// Converged reports whether every app is at desired state and every
// drain has finished.
func (s *Status) Converged() bool {
	for i := range s.Apps {
		if !s.Apps[i].Converged() {
			return false
		}
	}
	for i := range s.Drains {
		if !s.Drains[i].Done {
			return false
		}
	}
	return true
}
