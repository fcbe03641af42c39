package kernel

import (
	"fmt"

	"procmig/internal/errno"
	"procmig/internal/sim"
	"procmig/internal/tty"
	"procmig/internal/vfs"
	"procmig/internal/vm"
)

// Creds are a process's user credentials.
type Creds struct {
	UID, GID   int
	EUID, EGID int
}

// Root reports whether the effective user is the superuser.
func (c Creds) Root() bool { return c.EUID == 0 }

// ProcState is a process's lifecycle state.
type ProcState int

const (
	ProcRunning ProcState = iota
	ProcZombie
	ProcDead
)

func (s ProcState) String() string {
	switch s {
	case ProcRunning:
		return "running"
	case ProcZombie:
		return "zombie"
	default:
		return "dead"
	}
}

// procExit unwinds a process's goroutine when it dies.
type procExit struct {
	status int
	signal Signal // non-zero if killed by a signal
}

// Proc is one process: the proc structure plus the swappable u-area.
type Proc struct {
	M    *Machine
	PID  int
	PPID int
	Cmd  string

	Creds Creds
	// CWD is the paper's addition to the user structure: the full path
	// name of the current directory, maintained by chdir (§5.1). It is a
	// lexical combination of the names the process used — symlinks are
	// not resolved.
	CWD string
	FDs [NOFILE]*File
	TTY *tty.Terminal

	// VM is the machine-code image for VM processes; nil for hosted
	// programs (which run Go code against the syscall interface).
	VM *vm.CPU
	// ExecEntry remembers the executable's entry point (recorded in core
	// dumps so undump can rebuild a runnable executable).
	ExecEntry uint32

	sigPending uint32
	SigActions [NSIG]SigAction

	State      ProcState
	ExitStatus int
	KilledBy   Signal

	task      *sim.Task
	blockedOn *sim.Queue
	sleepQ    sim.Queue
	childQ    sim.Queue // parent blocks here in wait()
	ExitQ     sim.Queue // external observers of process exit

	UTime     sim.Duration
	STime     sim.Duration
	StartedAt sim.Time

	// §7 extension state: identity before migration.
	Migrated bool
	OldPID   int
	OldHost  string

	// Dumping marks the freeze window: true for the whole of the SIGDUMP
	// hook — classic dump+hold, or the streaming freeze → final-delta →
	// commit sequence. The SLI plane's request generators read it: a
	// request arriving while its server is frozen cannot be served and
	// queues, which is exactly the client-visible stall the paper never
	// measured.
	Dumping bool

	// Syscall-restart bookkeeping: while a VM process is inside a system
	// call, syscallPC holds the address of the SYS instruction so a dump
	// taken mid-syscall resumes by re-executing the trap (BSD restart
	// semantics — the paper's test program is dumped while blocked in
	// read and must re-issue it after rest_proc).
	inSyscall bool
	syscallPC uint32

	hosted     HostedProg
	hostedArgs []string
}

// Task returns the process's simulation task.
func (p *Proc) Task() *sim.Task { return p.task }

// sysCPU consumes CPU charged as system time.
func (p *Proc) sysCPU(d sim.Duration) {
	if d <= 0 {
		return
	}
	p.M.kobs.sysTimeUS.Add(int64(d))
	p.M.cpu.Use(p.task, d, func(s sim.Duration) { p.STime += s })
}

// userCPU consumes CPU charged as user time.
func (p *Proc) userCPU(d sim.Duration) {
	if d <= 0 {
		return
	}
	p.M.cpu.Use(p.task, d, func(s sim.Duration) { p.UTime += s })
}

// ChargeSys consumes CPU charged as system time — exported for the
// kernel-adjacent migration code in the core package.
func (p *Proc) ChargeSys(d sim.Duration) { p.sysCPU(d) }

// SleepIO blocks the process for d of I/O wait (no CPU consumed) —
// exported for the kernel-adjacent dump code.
func (p *Proc) SleepIO(d sim.Duration) {
	if d > 0 {
		p.task.Sleep(d)
	}
}

// RewindSyscall backs the VM program counter up to the SYS instruction if
// the process is currently inside a system call, so that an image dumped
// mid-syscall re-executes the call on restart (BSD syscall-restart
// semantics). The dump and core paths call this before snapshotting.
func (p *Proc) RewindSyscall() {
	if p.inSyscall && p.VM != nil {
		p.VM.PC = p.syscallPC
	}
}

// CheckAccess applies the owner/group/other permission bits (exported for
// kernel-adjacent code). want is a bitmask: 4 read, 2 write, 1 execute.
func CheckAccess(attr vfs.Attr, c Creds, want uint16) errno.Errno {
	return checkAccess(attr, c, want)
}

// die terminates the process immediately by unwinding its goroutine.
func (p *Proc) die(status int, sig Signal) {
	panic(procExit{status: status, signal: sig})
}

// --- Creation ---------------------------------------------------------------

// SpawnSpec describes a process to create.
type SpawnSpec struct {
	Path  string   // executable to run
	Args  []string // argv (Args[0] conventionally the program name)
	Env   []string // environment ("k=v")
	Creds Creds
	CWD   string
	TTY   *tty.Terminal
	PPID  int
	// InheritFDs, if non-nil, is copied into the child's descriptor table
	// (sharing the open file structures, Unix-style).
	InheritFDs []*File
}

// Spawn creates a process running spec.Path — the kernel-level equivalent
// of fork+exec, used by boot code, rshd and tests.
func (m *Machine) Spawn(spec SpawnSpec) (*Proc, error) {
	p := m.newProc(spec.Creds, spec.CWD, spec.TTY)
	p.PPID = spec.PPID
	for i, f := range spec.InheritFDs {
		if i >= NOFILE {
			break
		}
		if f != nil {
			f.refs++
			p.FDs[i] = f
		}
	}
	p.Cmd = spec.Path
	m.eng.Go(fmt.Sprintf("%s:pid%d:%s", m.Name, p.PID, spec.Path), func(t *sim.Task) {
		p.task = t
		p.StartedAt = t.Now()
		p.run(func() {
			p.sysCPU(m.Costs.SpawnBase)
			if e := p.execve(spec.Path, spec.Args, spec.Env); e != 0 {
				p.die(126, 0) // exec failed
			}
			p.runImage()
		})
	})
	return p, nil
}

// newProc allocates a process table slot.
func (m *Machine) newProc(creds Creds, cwd string, term *tty.Terminal) *Proc {
	pid := m.nextPid
	m.nextPid++
	if cwd == "" {
		cwd = "/"
	}
	p := &Proc{M: m, PID: pid, Creds: creds, CWD: cwd, TTY: term, State: ProcRunning}
	m.procs = append(m.procs, p) // pids only grow, so the table stays ordered
	return p
}

// run executes body with exit unwinding installed.
func (p *Proc) run(body func()) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ex, ok := r.(procExit)
		if !ok {
			panic(r)
		}
		p.finish(ex)
	}()
	body()
	p.finish(procExit{status: 0})
}

// runImage runs whatever image execve installed: the VM interpreter loop
// or the hosted program body. It does not return (exits via die).
func (p *Proc) runImage() {
	for {
		if p.VM != nil {
			p.runVM()
		} else if p.hosted != nil {
			fn, args := p.hosted, p.hostedArgs
			p.hosted = nil
			status := fn(&Sys{p: p}, args)
			p.die(status, 0)
		} else {
			p.die(126, 0)
		}
	}
}

// finish turns the process into a zombie and handles reaping.
func (p *Proc) finish(ex procExit) {
	m := p.M
	for fd := range p.FDs {
		if p.FDs[fd] != nil {
			p.closeFile(p.FDs[fd])
			p.FDs[fd] = nil
		}
	}
	p.ExitStatus = ex.status
	p.KilledBy = ex.signal
	p.State = ProcZombie
	p.VM = nil

	// Reparent children to nobody; they self-reap on exit.
	for _, q := range m.procs {
		if q != p && q.PPID == p.PID {
			q.PPID = 0
		}
	}
	parent, ok := m.FindProc(p.PPID)
	if p.PPID == 0 || !ok || parent.State != ProcRunning {
		// Nobody will wait for us.
		p.State = ProcDead
		m.removeProc(p.PID)
	} else {
		parent.postSignal(SIGCHLD)
		parent.childQ.WakeAll()
	}
	p.ExitQ.WakeAll()
}

// AwaitExit blocks t until the process has exited, returning its status.
// It is for simulation drivers (tests, benchmarks), not simulated code.
func (p *Proc) AwaitExit(t *sim.Task) int {
	for p.State == ProcRunning {
		t.Wait(&p.ExitQ)
	}
	return p.ExitStatus
}

// AwaitExitOrMigrated blocks t until the process exits or is overlaid by
// rest_proc. It reports (status, migrated). rshd uses this: a successful
// restart never "completes" — it has become the migrated process.
func (p *Proc) AwaitExitOrMigrated(t *sim.Task) (int, bool) {
	for p.State == ProcRunning && !p.Migrated {
		t.Wait(&p.ExitQ)
	}
	if p.Migrated && p.State == ProcRunning {
		return 0, true
	}
	return p.ExitStatus, p.Migrated
}

// NotifyMigrated marks the process as successfully overlaid by rest_proc
// and wakes anyone waiting on it (parents in WaitRestarted, rshd).
func (p *Proc) NotifyMigrated(oldPID int, oldHost string) {
	p.Migrated = true
	p.OldPID = oldPID
	if oldHost != "" {
		p.OldHost = oldHost
	}
	if parent, ok := p.M.FindProc(p.PPID); ok {
		parent.childQ.WakeAll()
	}
	p.ExitQ.WakeAll()
}

// --- Signals ----------------------------------------------------------------

// postSignal marks sig pending and wakes the process if it is blocked.
func (p *Proc) postSignal(sig Signal) {
	if sig <= 0 || sig >= NSIG || p.State != ProcRunning {
		return
	}
	p.sigPending |= 1 << uint(sig)
	if p.blockedOn != nil && p.task != nil {
		p.blockedOn.WakeTask(p.task)
	}
}

// SignalPending reports whether sig is pending (tests).
func (p *Proc) SignalPending(sig Signal) bool {
	return p.sigPending&(1<<uint(sig)) != 0
}

// deliverSignals processes pending signals in the process's own context.
// Fatal dispositions do not return. It reports whether any signal was
// delivered to a handler (so interrupted syscalls can return EINTR).
func (p *Proc) deliverSignals() bool {
	caught := false
	for sig := Signal(1); sig < NSIG; sig++ {
		bit := uint32(1) << uint(sig)
		if p.sigPending&bit == 0 {
			continue
		}
		p.sigPending &^= bit
		act := p.SigActions[sig]
		if sig == SIGKILL {
			act = SigAction{} // SIGKILL cannot be caught or ignored
		}
		switch act.Disposition {
		case SigIgnore:
			continue
		case SigCatch:
			p.M.kobs.sigCaught.Inc()
			p.sysCPU(p.M.Costs.SignalDeliver)
			if p.VM != nil {
				// Push the interrupted PC and enter the handler; the
				// handler returns with RET.
				sp := p.VM.R[vm.RegSP] - 4
				if p.VM.WriteU32(sp, p.VM.PC) {
					p.VM.R[vm.RegSP] = sp
					p.VM.PC = act.Handler
				}
			}
			caught = true
		default:
			if ignoredByDefault[sig] {
				continue
			}
			switch {
			case sig == SIGDUMP:
				if p.M.Hooks.Dump != nil {
					p.M.trace(p, "sigdump", "dumping to /usr/tmp")
					// A transactional dump may abort and resume the
					// process; remember the pre-rewind PC so an
					// in-progress syscall is not re-executed on resume.
					var resumePC uint32
					if p.VM != nil {
						resumePC = p.VM.PC
					}
					p.RewindSyscall()
					p.M.kobs.dumps.Inc()
					p.Dumping = true
					p.M.kobs.frozen.Add(1)
					start, scpu := p.task.Now(), p.STime
					e := p.M.Hooks.Dump(p)
					p.Dumping = false
					p.M.kobs.frozen.Add(-1)
					p.M.Metrics.LastDump = OpTiming{
						CPU:  p.STime - scpu,
						Real: sim.Duration(p.task.Now() - start),
					}
					if p.M.kobs.dumpReal == nil {
						p.M.kobs.dumpReal = p.M.Obs.HDR("kernel.dump_real_us")
					}
					p.M.kobs.dumpReal.Observe(int64(p.M.Metrics.LastDump.Real))
					if e == errno.ERESTART {
						p.M.kobs.dumpAborts.Inc()
						// The migration aborted with the process intact:
						// put the PC back and keep running exactly where
						// it was.
						if p.VM != nil {
							p.VM.PC = resumePC
						}
						p.M.trace(p, "sigdump", "migration aborted, resuming")
						continue
					}
				}
				p.die(0, sig)
			case coreSignals[sig]:
				p.RewindSyscall()
				p.writeCore()
				p.die(0, sig)
			default:
				p.die(0, sig)
			}
		}
	}
	return caught
}

// Kill posts sig to the target process, with the BSD permission check:
// the superuser, or a sender whose real or effective uid matches the
// target's real or effective uid.
func (m *Machine) Kill(sender Creds, pid int, sig Signal) errno.Errno {
	target, ok := m.FindProc(pid)
	if !ok || target.State != ProcRunning {
		return errno.ESRCH
	}
	if !sender.Root() &&
		sender.UID != target.Creds.UID && sender.UID != target.Creds.EUID &&
		sender.EUID != target.Creds.UID && sender.EUID != target.Creds.EUID {
		return errno.EPERM
	}
	m.kobs.sigPosted.Inc()
	target.postSignal(sig)
	m.trace(target, "signal", "%v posted by uid %d", sig, sender.EUID)
	return 0
}

// --- ps ---------------------------------------------------------------------

// ProcInfo is one ps row.
type ProcInfo struct {
	PID, PPID int
	UID       int
	State     ProcState
	Cmd       string
	UTime     sim.Duration
	STime     sim.Duration
	Started   sim.Time
}

// PS lists the process table.
func (m *Machine) PS() []ProcInfo {
	var out []ProcInfo
	for _, p := range m.Procs() {
		out = append(out, ProcInfo{
			PID: p.PID, PPID: p.PPID, UID: p.Creds.UID, State: p.State,
			Cmd: p.Cmd, UTime: p.UTime, STime: p.STime, Started: p.StartedAt,
		})
	}
	return out
}

// --- Blocking helpers --------------------------------------------------------

// blockOn parks the process on q until woken; signals are delivered both
// before sleeping (the classic check-before-sleep rule — a signal posted
// while the process was transiently unparked must not be lost) and on
// wake. Delivery may kill the process or return true for "interrupted".
func (p *Proc) blockOn(q *sim.Queue) bool {
	if p.deliverSignals() {
		return true
	}
	p.blockedOn = q
	p.task.Wait(q)
	p.blockedOn = nil
	return p.deliverSignals()
}

// sleep pauses the process for d of virtual time, interruptibly.
func (p *Proc) sleep(d sim.Duration) {
	deadline := p.task.Now() + sim.Time(d)
	for {
		p.deliverSignals()
		remaining := sim.Duration(deadline - p.task.Now())
		if remaining <= 0 {
			return
		}
		p.blockedOn = &p.sleepQ
		woken := p.task.WaitTimeout(&p.sleepQ, remaining)
		p.blockedOn = nil
		p.deliverSignals()
		if !woken {
			return
		}
	}
}

// EnsureFile is a helper for vfs.Place-based files opened by kernel code.
func placeIsLocal(m *Machine, pl vfs.Place) bool { return pl.FS == vfs.BaseFS(m.localFS) }
