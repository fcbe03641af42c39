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
// Like the Balancer it is message-passing-honest: job liveness and
// placement are read from the heartbeat view, and moves go through the
// source machine's migd transaction. Jobs are tracked by (host, pid);
// when a move's new pid is lost to a retry, the next heartbeat's OldPID
// chain relocates the job.
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

	// viewBuf backs every refresh; the scheduler is driven from a single
	// task, so one snapshot at a time is live.
	viewBuf ha.ViewBuf
}

type nightJob struct {
	host  string
	pid   int
	stale bool // pid unknown after a move; relocate via OldPID
}

// Add registers a running CPU hog to be managed.
func (ns *NightScheduler) Add(host string, pid int) {
	ns.jobs = append(ns.jobs, &nightJob{host: host, pid: pid})
}

// refresh reconciles job entries against the view: a job whose pid moved
// under it (a migration whose new pid we never learned) is found again
// through the OldPID its restarted copy advertises.
func (ns *NightScheduler) refresh() []ha.Member {
	view := ns.View.ViewInto(&ns.viewBuf)
	for _, j := range ns.jobs {
		if !j.stale {
			continue
		}
		for i := range view {
			for _, ps := range view[i].Procs {
				if ps.OldPID == j.pid {
					j.host, j.pid, j.stale = view[i].Host, ps.PID, false
				}
			}
		}
	}
	return view
}

// alive reports whether the view shows job j running.
func alive(view []ha.Member, j *nightJob) bool {
	for i := range view {
		if view[i].Host != j.host {
			continue
		}
		for _, ps := range view[i].Procs {
			if ps.PID == j.pid {
				return true
			}
		}
	}
	return false
}

// Running reports how many managed jobs the view shows alive.
func (ns *NightScheduler) Running() int {
	view := ns.refresh()
	n := 0
	for _, j := range ns.jobs {
		if !j.stale && alive(view, j) {
			n++
		}
	}
	return n
}

// Placement reports how many live jobs the view shows on each machine.
func (ns *NightScheduler) Placement() map[string]int {
	view := ns.refresh()
	out := map[string]int{}
	for _, j := range ns.jobs {
		if !j.stale && alive(view, j) {
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

func (ns *NightScheduler) moveJob(t *sim.Task, view []ha.Member, j *nightJob, dst string) {
	if j.host == dst || j.stale || !alive(view, j) {
		return
	}
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
		j.stale = true // relocate from the next heartbeat's OldPID
	}
}

// Nightfall spreads the managed jobs round-robin across all machines.
func (ns *NightScheduler) Nightfall(t *sim.Task) {
	view := ns.refresh()
	i := 0
	for _, j := range ns.jobs {
		if j.stale || !alive(view, j) {
			continue
		}
		ns.moveJob(t, view, j, ns.Machines[i%len(ns.Machines)])
		i++
	}
}

// Daybreak brings every managed job back to the home machine.
func (ns *NightScheduler) Daybreak(t *sim.Task) {
	view := ns.refresh()
	for _, j := range ns.jobs {
		ns.moveJob(t, view, j, ns.Home)
	}
}
