package controller

import (
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// Actuator is everything the controller may do to the cluster, and the
// one place it reads observed state from. The split keeps the policy
// core independent of the cluster assembly: the real implementation
// (cluster.ControllerActuator) drives the migd transaction machinery and
// the HA control plane, tests drive fakes.
//
// Reads are deliberately narrow: View is the disseminated heartbeat
// view — membership and per-host load — and Census is what one host
// answers when asked which processes run there. That is all a policy
// daemon on one host can honestly know; the controller never inspects a
// peer kernel directly.
type Actuator interface {
	// Hosts lists every host ever booted, in boot order (including ones
	// currently down). Placement still consults View for liveness.
	Hosts() []string
	// View snapshots the heartbeat membership view into dst[:0] (see
	// ha.Membership.ViewInto); rows are stable until dst's next use.
	View(dst []ha.Member) []ha.Member
	// Census asks host which processes run there, onto dst[:0] (see
	// ha.Node.Census). An error means no answer, which says nothing.
	Census(t *sim.Task, host string, dst []ha.ProcStat) ([]ha.ProcStat, error)
	// Spawn starts one replica of path on host and returns its pid.
	Spawn(t *sim.Task, host, path string) (int, error)
	// Kill terminates pid on host.
	Kill(t *sim.Task, host string, pid int) error
	// Migrate moves pid from src to dst through the transactional migd
	// path and returns the new pid. A nil error with pid 0 means the
	// transaction committed but a duplicate-suppressed retry lost the
	// reply carrying the new pid — the caller relocates the replica by
	// the OldPID dst's census reports, exactly like the NightScheduler.
	Migrate(t *sim.Task, src string, pid int, dst string) (int, error)
	// Protect registers pid (running on host) with the host's guardian
	// for buddy delta-checkpoints spooled to buddy.
	Protect(t *sim.Task, host string, pid int, buddy string) error
	// Recoveries reports the named buddy's guardian restart ledger, in
	// the order the restarts happened. The controller adopts restarted
	// replicas from here instead of blindly respawning.
	Recoveries(buddy string) []ha.Recovery
}
