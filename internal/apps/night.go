package apps

import (
	"procmig/internal/ha"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// NightScheduler implements the paper's second §8 application: CPU hogs
// with large expected running times are confined to one machine during
// the day, when users want the workstations, and spread evenly across the
// network at night, when the load is low.
//
// Like the Balancer it is message-passing-honest: a job's liveness is
// what its host's census answers, and moves go through the source
// machine's migd transaction. Jobs are tracked by (host, pid); when a
// move's new pid is lost to a retry, the destination's census relocates
// the job by the OldPID its restarted copy reports.
type NightScheduler struct {
	Host     *netsim.Host // where the scheduler runs
	View     LoadView
	Home     string   // where hogs live during the day
	Machines []string // the whole network (includes Home)

	// Jobs tracks the hogs by their current (host, pid); Add registers
	// them, and migrations keep the entries up to date.
	jobs []*nightJob

	Events []MigrationEvent

	// Migrate performs one move (tests inject fakes); nil means
	// MigrateRemote through the source's migd.
	Migrate func(t *sim.Task, src string, pid int, dst string) (int, error)

	// procs backs every census; the scheduler is driven from a single
	// task, so one answer at a time is live.
	procs []ha.ProcStat
}

type nightJob struct {
	host  string
	pid   int
	stale bool // pid unknown after a move to host; relocate via OldPID
}

// Add registers a running CPU hog to be managed.
func (ns *NightScheduler) Add(host string, pid int) {
	ns.jobs = append(ns.jobs, &nightJob{host: host, pid: pid})
}

// locate asks job j's host for its census and reports whether j runs
// there. A stale job — moved to host under a pid we never learned — is
// found again by the OldPID its restarted copy reports. A host that does
// not answer shows nothing.
func (ns *NightScheduler) locate(t *sim.Task, j *nightJob) bool {
	procs, err := ns.View.Census(t, j.host, ns.procs)
	ns.procs = procs
	if err != nil {
		return false
	}
	for _, ps := range procs {
		if j.stale && ps.OldPID == j.pid || !j.stale && ps.PID == j.pid {
			j.pid, j.stale = ps.PID, false
			return true
		}
	}
	return false
}

// Running reports how many managed jobs their hosts show running.
func (ns *NightScheduler) Running(t *sim.Task) int {
	n := 0
	for _, j := range ns.jobs {
		if ns.locate(t, j) {
			n++
		}
	}
	return n
}

// Placement reports how many running jobs each machine shows.
func (ns *NightScheduler) Placement(t *sim.Task) map[string]int {
	out := map[string]int{}
	for _, j := range ns.jobs {
		if ns.locate(t, j) {
			out[j.host]++
		}
	}
	return out
}

func (ns *NightScheduler) migrate(t *sim.Task, src string, pid int, dst string) (int, error) {
	if ns.Migrate != nil {
		return ns.Migrate(t, src, pid, dst)
	}
	return MigrateRemote(t, ns.Host, src, pid, dst)
}

// moveJob migrates job j, which locate just found running, to dst.
func (ns *NightScheduler) moveJob(t *sim.Task, j *nightJob, dst string) {
	newPid, err := ns.migrate(t, j.host, j.pid, dst)
	if err != nil {
		return
	}
	ns.Events = append(ns.Events, MigrationEvent{
		At: t.Now(), PID: j.pid, New: newPid, From: j.host, To: dst,
	})
	j.host = dst
	if newPid != 0 {
		j.pid = newPid
	} else {
		j.stale = true // relocate from dst's census by OldPID
	}
}

// Nightfall spreads the running jobs round-robin across all machines.
func (ns *NightScheduler) Nightfall(t *sim.Task) {
	i := 0
	for _, j := range ns.jobs {
		if !ns.locate(t, j) {
			continue
		}
		if dst := ns.Machines[i%len(ns.Machines)]; dst != j.host {
			ns.moveJob(t, j, dst)
		}
		i++
	}
}

// Daybreak brings every running job back to the home machine.
func (ns *NightScheduler) Daybreak(t *sim.Task) {
	for _, j := range ns.jobs {
		if j.host != ns.Home && ns.locate(t, j) {
			ns.moveJob(t, j, ns.Home)
		}
	}
}
