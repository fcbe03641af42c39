package apps

import (
	"fmt"

	"procmig/internal/errno"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/tty"
)

// MigrateProc migrates pid from src to dst by orchestrating dumpproc and
// restart directly through the kernel (as the daemon-based application the
// paper recommends for load balancing would — §6.4, §8). It runs with
// superuser credentials and returns the process's new pid on dst.
func MigrateProc(t *sim.Task, src, dst *kernel.Machine, pid int) (int, error) {
	root := kernel.Creds{}
	runOn := func(m *kernel.Machine, isRestart bool, path string, args ...string) (*kernel.Proc, int, error) {
		pty := tty.NewNetworkPTY(m.Engine(), m.Name+":balancer-pty")
		stdio := m.NewTerminalFile(kernel.NewTTYDevice(pty))
		p, err := m.Spawn(kernel.SpawnSpec{
			Path:       path,
			Args:       append([]string{path}, args...),
			Creds:      root,
			CWD:        "/",
			TTY:        pty,
			InheritFDs: []*kernel.File{stdio, stdio, stdio},
		})
		if err != nil {
			return nil, -1, err
		}
		if isRestart {
			status, migrated := p.AwaitExitOrMigrated(t)
			if !migrated {
				return p, status, fmt.Errorf("restart exited %d: %s", status, pty.Output())
			}
			return p, 0, nil
		}
		status := p.AwaitExit(t)
		if status != 0 {
			return p, status, fmt.Errorf("%s exited %d: %s", path, status, pty.Output())
		}
		return p, 0, nil
	}

	if _, _, err := runOn(src, false, "/bin/dumpproc", "-p", fmt.Sprint(pid)); err != nil {
		return 0, err
	}
	rp, _, err := runOn(dst, true, "/bin/restart", "-p", fmt.Sprint(pid), "-h", src.Name)
	if err != nil {
		return 0, err
	}
	return rp.PID, nil
}

// MigrationEvent records one policy decision (successful or failed).
type MigrationEvent struct {
	At   sim.Time
	PID  int
	New  int
	From string
	To   string
	Err  string // why the attempt failed ("" on success)
}

// LoadView is what the policy layer knows about the cluster: the
// membership table's disseminated heartbeat view, and the census a host
// answers when asked. Both ha.Node and test fakes satisfy it. ViewInto
// refills the caller's rows, so a policy loop sampling a 1,000-host view
// every period allocates nothing.
type LoadView interface {
	ViewInto(dst []ha.Member) []ha.Member
	Census(t *sim.Task, host string, dst []ha.ProcStat) ([]ha.ProcStat, error)
}

// Balancer implements the §8 load-balancing application: move CPU-bound
// jobs from busy machines to idle ones. "Candidates for migration can be
// best selected from the processes that have been running for more than a
// certain amount of time", so the overhead of moving them pays off.
//
// The balancer is message-passing-honest: everything it knows about load
// comes from the heartbeat view, it asks only the busiest host for its
// processes, and it moves jobs by driving the source machine's migd
// transaction remotely — it never touches a peer's kernel structures.
type Balancer struct {
	Host   *netsim.Host // where the balancer runs; migrations are driven from here
	View   LoadView
	Period sim.Duration // how often load is sampled
	MinAge sim.Duration // minimum runtime before a process is a candidate
	// MinImbalance is the smallest (busiest − idlest) run-queue
	// difference worth acting on; 2 means the move strictly helps.
	MinImbalance int
	// Cooldown blocks re-migrating a process that just arrived somewhere
	// (anti-thrash hysteresis on top of MinAge — a restarted process has
	// a fresh start time, but the view's loads lag). Defaults to 2×Period.
	Cooldown sim.Duration

	Events []MigrationEvent // committed moves
	Failed []MigrationEvent // attempts that failed, with the reason

	// Migrate performs one move (tests inject fakes); nil means
	// MigrateRemote through the source's migd.
	Migrate func(t *sim.Task, src string, pid int, dst string) (int, error)

	recent map[string]sim.Time // "host/pid" -> arrival time of a recent move
	rows   []ha.Member         // scratch for the per-step view snapshot
	procs  []ha.ProcStat       // scratch for the busiest host's census
}

func cooldownKey(host string, pid int) string {
	return fmt.Sprintf("%s/%d", host, pid)
}

func (b *Balancer) cooldown() sim.Duration {
	if b.Cooldown > 0 {
		return b.Cooldown
	}
	return 2 * b.Period
}

// candidate picks the migratable process in member m's census procs: old
// enough and mostly CPU-bound, judged purely from the census statistics.
func (b *Balancer) candidate(m *ha.Member, procs []ha.ProcStat, now sim.Time) *ha.ProcStat {
	var best *ha.ProcStat
	for i := range procs {
		ps := &procs[i]
		if ps.Age < b.MinAge {
			continue
		}
		if at, ok := b.recent[cooldownKey(m.Host, ps.PID)]; ok &&
			sim.Duration(now-at) < b.cooldown() {
			continue
		}
		// CPU-bound: the process has been computing for most of its fair
		// share of the (contended) CPU. A process blocked on a terminal
		// has CPU near zero and is rejected.
		share := ps.Age / sim.Duration(m.Load+1)
		if ps.CPU*2 < share {
			continue
		}
		if best == nil || ps.CPU > best.CPU {
			best = ps
		}
	}
	return best
}

// count bumps a balancer outcome counter in the cluster registry (no-op
// for bare test balancers with no network attachment).
func (b *Balancer) count(name string) {
	if b.Host == nil {
		return
	}
	if reg := b.Host.Network().Obs(); reg != nil {
		reg.Scope(b.Host.Name()).Counter(name).Inc()
	}
}

func (b *Balancer) migrate(t *sim.Task, src string, pid int, dst string) (int, error) {
	if b.Migrate != nil {
		return b.Migrate(t, src, pid, dst)
	}
	return MigrateRemote(t, b.Host, src, pid, dst)
}

// Step samples the view once and performs at most one migration. It
// reports whether it migrated anything; failed attempts are recorded in
// Failed instead of being silently dropped.
func (b *Balancer) Step(t *sim.Task) bool {
	now := t.Now()
	view := b.View.ViewInto(b.rows)
	b.rows = view
	var busiest, idlest *ha.Member
	for i := range view {
		m := &view[i]
		if !m.Alive {
			continue
		}
		if busiest == nil || m.Load > busiest.Load {
			busiest = m
		}
		if idlest == nil || m.Load < idlest.Load {
			idlest = m
		}
	}
	min := b.MinImbalance
	if min <= 0 {
		min = 2
	}
	if busiest == nil || busiest == idlest || busiest.Load-idlest.Load < min {
		return false
	}
	procs, err := b.View.Census(t, busiest.Host, b.procs)
	b.procs = procs
	if err != nil {
		return false // no answer, no candidates: try again next period
	}
	cand := b.candidate(busiest, procs, now)
	if cand == nil {
		return false
	}
	newPid, err := b.migrate(t, busiest.Host, cand.PID, idlest.Host)
	ev := MigrationEvent{
		At: t.Now(), PID: cand.PID, New: newPid, From: busiest.Host, To: idlest.Host,
	}
	if err != nil {
		ev.Err = err.Error()
		b.Failed = append(b.Failed, ev)
		b.count("balancer.failed." + errno.FailLabel(err))
		return false
	}
	b.Events = append(b.Events, ev)
	b.count("balancer.migrations")
	if b.recent == nil {
		b.recent = map[string]sim.Time{}
	}
	if newPid != 0 {
		b.recent[cooldownKey(idlest.Host, newPid)] = t.Now()
	}
	return true
}

// Run samples every Period until the stop condition reports true (checked
// after each step). Typical stop conditions: all jobs finished, or a
// simulated-time budget elapsed.
func (b *Balancer) Run(t *sim.Task, stop func() bool) {
	for !stop() {
		t.Sleep(b.Period)
		b.Step(t)
	}
}
