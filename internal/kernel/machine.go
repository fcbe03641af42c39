// Package kernel implements the simulated Sun UNIX 3.0 kernel: processes
// (VM-image and hosted), the u-area and file structures including the
// paper's pathname-tracking modifications (§5.1), signals including the
// hooks for the paper's SIGDUMP/rest_proc additions (§5.2), a round-robin
// scheduler with CPU-time accounting, and the BSD-style system calls.
//
// The paper's kernel modifications are toggleable: Config.TrackNames off
// gives the unmodified baseline kernel Figure 1 compares against.
package kernel

import (
	"cmp"
	"fmt"
	"slices"

	"procmig/internal/errno"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/tty"
	"procmig/internal/vfs"
	"procmig/internal/vm"
)

// NOFILE is the per-process open file limit (the 4.2BSD value; the files
// dump records exactly this many slots).
const NOFILE = 20

// Config selects kernel variants.
type Config struct {
	// TrackNames enables the paper's §5.1 modification: the kernel keeps
	// the current directory's full path in the user structure and each
	// open file's full path in its file structure. Off = baseline kernel.
	TrackNames bool
	// FixedNameStorage charges MaxPathLen bytes of kernel memory per
	// tracked name instead of the string's length — the design §5.1
	// rejects; kept for the A1 ablation.
	FixedNameStorage bool
	// PidSpoof enables the §7 extension: after migration getpid() and
	// gethostname() return the original values; getrealpid() and
	// getrealhostname() return the truth.
	PidSpoof bool
	// SocketMigration enables the §9 future-work extension: dumps record
	// bound datagram-socket ports, restart re-binds them on the new
	// machine, and the old machine forwards incoming datagrams
	// (DEMOS/MP's forwarding-address idea). Off = the paper's behaviour
	// (sockets become /dev/null).
	SocketMigration bool
}

// OpTiming records the CPU and real time of one instrumented operation —
// the paper's "timing code inside the kernel" (§6.3).
type OpTiming struct {
	CPU  sim.Duration
	Real sim.Duration
}

// Metrics exposes kernel-side instrumentation for the benchmarks.
type Metrics struct {
	LastExecve   OpTiming // most recent execve (image load only)
	LastRestProc OpTiming // most recent rest_proc
	LastDump     OpTiming // most recent SIGDUMP dump
	LastCore     OpTiming // most recent core write
}

// MigrationHooks are the paper's kernel additions, installed by the core
// package (keeping this package the "stock" kernel plus hook points).
type MigrationHooks struct {
	// Dump implements the SIGDUMP action: write the three restart files
	// for p. Runs in p's context, as the core-dump code does.
	Dump func(p *Proc) errno.Errno
	// RestProc implements the rest_proc(aoutPath, stackPath) system call:
	// overlay p with the dumped process. On success p has become a VM
	// process resumed at the dumped state.
	RestProc func(p *Proc, aoutPath, stackPath string) errno.Errno
}

// Device is a character device driver.
type Device interface {
	Read(p *Proc, max int) ([]byte, errno.Errno)
	Write(p *Proc, data []byte) (int, errno.Errno)
}

// DevCurrentTTY is the reserved device id for /dev/tty: the process's
// controlling terminal, whatever it is.
const DevCurrentTTY vfs.DevID = 1

// HostedProg is a user program implemented in Go against the syscall
// interface (the paper's user-level commands are hosted programs). The
// return value is the exit status.
type HostedProg func(sys *Sys, args []string) int

// Machine is one workstation: a CPU, a local disk, a namespace, a process
// table and the kernel services around them.
type Machine struct {
	Name    string
	ISA     vm.Level
	Costs   Costs
	Config  Config
	Hooks   MigrationHooks
	Metrics Metrics
	// Ext is per-machine state of the package that installed Hooks (the
	// migration core keeps its page store here); the kernel never reads it.
	Ext any

	// Obs is this machine's metrics scope and Trace the span tracer. A
	// standalone machine gets a private registry; the cluster replaces both
	// with a shared one (SetObs) so one trace stitches every host.
	Obs   *obs.Scope
	Trace *obs.Tracer

	eng     *sim.Engine
	cpu     *sim.Resource
	ns      *vfs.Namespace
	localFS *vfs.MemFS

	procs    []*Proc // live and unreaped processes, ordered by pid
	nextPid  int
	devices  map[vfs.DevID]Device
	nextDev  vfs.DevID
	registry map[string]HostedProg

	// Kernel memory held by tracked pathname strings (§5.1's dynamic
	// allocation argument; the A1 ablation compares against fixed).
	NameBytes     int64
	NameBytesPeak int64

	// netStack is the datagram network (nil until the cluster installs
	// one); see socket.go.
	netStack NetStack

	// ktrace-style event log; see trace.go.
	tracing   bool
	traceLog  []TraceEntry
	traceDrop int64 // entries the ring buffer has discarded

	// kobs holds the kernel's pre-resolved metric pointers (resolved once
	// per SetObs), keeping signal/syscall/dump accounting allocation-free.
	kobs kernelObs
}

// kernelObs is the kernel's instrumentation: every field resolved once so
// hot paths pay one pointer dereference per event.
type kernelObs struct {
	sigPosted  *obs.Counter // signals posted via Kill
	sigCaught  *obs.Counter // signals delivered to handlers
	syscalls   *obs.Counter // system calls entered (hosted + VM)
	sysTimeUS  *obs.Counter // µs of system CPU charged
	dumps      *obs.Counter // SIGDUMP dumps attempted
	dumpAborts *obs.Counter // dumps that aborted and resumed the victim
	traceDrops *obs.Counter // ktrace ring-buffer entries discarded
	frozen     *obs.Gauge   // processes currently inside a dump freeze
	// dumpReal is the real time of each dump window (µs), resolved on the
	// first dump: most hosts never dump, and an HDR is not small.
	dumpReal *obs.HDR
}

func (m *Machine) resolveObs() {
	s := m.Obs
	m.kobs = kernelObs{
		sigPosted:  s.Counter("kernel.signals_posted"),
		sigCaught:  s.Counter("kernel.signals_caught"),
		syscalls:   s.Counter("kernel.syscalls"),
		sysTimeUS:  s.Counter("kernel.sys_cpu_us"),
		dumps:      s.Counter("kernel.dumps"),
		dumpAborts: s.Counter("kernel.dump_aborts"),
		traceDrops: s.Counter("kernel.trace_dropped"),
		frozen:     s.Gauge("kernel.frozen"),
	}
}

// SetObs repoints the machine at a shared registry (the cluster's) and
// re-resolves every pre-resolved metric pointer. Call before the machine
// runs anything; counts accumulated under the private default registry are
// not carried over.
func (m *Machine) SetObs(reg *obs.Registry) {
	m.Obs = reg.Scope(m.Name)
	m.Trace = reg.Tracer
	m.resolveObs()
}

// NewMachine boots a workstation. The namespace is rooted at a fresh local
// disk; mounts are added by the cluster.
func NewMachine(eng *sim.Engine, name string, isa vm.Level, cfg Config) *Machine {
	costs := DefaultCosts()
	if isa >= vm.ISA2 {
		// Sun-3s are roughly twice as fast.
		costs.InstrPerUS *= 2
	}
	local := vfs.NewMemFS()
	m := &Machine{
		Name:     name,
		ISA:      isa,
		Costs:    costs,
		Config:   cfg,
		eng:      eng,
		cpu:      sim.NewResource(costs.Quantum, costs.SwitchCost),
		ns:       vfs.NewNamespace(local),
		localFS:  local,
		nextPid:  1,
		devices:  map[vfs.DevID]Device{},
		nextDev:  DevCurrentTTY + 1,
		registry: map[string]HostedProg{},
	}
	m.SetObs(obs.NewRegistry())
	return m
}

// Engine returns the simulation engine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// SetNextPID seeds the pid counter (machines that have been up for a
// while hand out different pid ranges; the cluster staggers them so pids
// are distinct across hosts, which the §7 temporary-file scenario needs).
func (m *Machine) SetNextPID(pid int) {
	if pid > m.nextPid {
		m.nextPid = pid
	}
}

// CPU returns the machine's processor resource (its run queue length is the
// load metric the balancer uses).
func (m *Machine) CPU() *sim.Resource { return m.cpu }

// NS returns the machine's namespace.
func (m *Machine) NS() *vfs.Namespace { return m.ns }

// LocalFS returns the machine's local disk filesystem (what NFS exports).
func (m *Machine) LocalFS() *vfs.MemFS { return m.localFS }

// RegisterDevice installs a device driver and returns its id for mknod.
func (m *Machine) RegisterDevice(d Device) vfs.DevID {
	id := m.nextDev
	m.nextDev++
	m.devices[id] = d
	return id
}

// RegisterProgram makes a hosted program available to exec under name
// (the cluster writes a matching stub executable into the filesystem).
func (m *Machine) RegisterProgram(name string, fn HostedProg) {
	m.registry[name] = fn
}

// Procs returns a snapshot of the live process table, ordered by pid.
func (m *Machine) Procs() []*Proc {
	out := make([]*Proc, len(m.procs))
	copy(out, m.procs)
	return out
}

// FindProc looks up a live process by pid.
func (m *Machine) FindProc(pid int) (*Proc, bool) {
	i, ok := m.procIndex(pid)
	if !ok {
		return nil, false
	}
	return m.procs[i], true
}

// procIndex binary-searches the pid-ordered table for pid.
func (m *Machine) procIndex(pid int) (int, bool) {
	return slices.BinarySearchFunc(m.procs, pid, func(p *Proc, pid int) int { return cmp.Compare(p.PID, pid) })
}

// removeProc reaps pid from the process table.
func (m *Machine) removeProc(pid int) {
	if i, ok := m.procIndex(pid); ok {
		m.procs = slices.Delete(m.procs, i, i+1)
	}
}

// Load reports the CPU run-queue length.
func (m *Machine) Load() int { return m.cpu.Load() }

// trackName charges the cost of recording a pathname in a kernel
// structure and accounts the memory, returning the name to store ("" when
// tracking is off). p may be nil for kernel-created files (no CPU charge).
func (m *Machine) trackName(p *Proc, name string) string {
	if !m.Config.TrackNames {
		return ""
	}
	if p != nil {
		p.sysCPU(m.Costs.TrackMalloc + m.Costs.TrackCopyBase +
			sim.Duration(len(name))*m.Costs.TrackNamePerByte)
	}
	m.NameBytes += m.nameSize(name)
	if m.NameBytes > m.NameBytesPeak {
		m.NameBytesPeak = m.NameBytes
	}
	return name
}

// NewTerminalFile builds an open file structure on a terminal, for boot
// code and daemons that set up a session's stdio before a process exists.
// The tracked name is /dev/tty, which is what dumpproc would map any
// terminal to anyway.
func (m *Machine) NewTerminalFile(term Device) *File {
	f := &File{Kind: FileDevice, Dev: term, Flags: O_RDWR}
	f.Name = m.trackName(nil, "/dev/tty")
	return f
}

// untrackName releases a tracked name.
func (m *Machine) untrackName(p *Proc, name string) {
	if !m.Config.TrackNames || name == "" {
		return
	}
	if p != nil {
		p.sysCPU(m.Costs.TrackFree)
	}
	m.NameBytes -= m.nameSize(name)
}

func (m *Machine) nameSize(name string) int64 {
	if m.Config.FixedNameStorage {
		return MaxPathLen
	}
	return int64(len(name) + 1)
}

func (m *Machine) String() string {
	return fmt.Sprintf("%s(%v)", m.Name, m.ISA)
}

// ttyDevice adapts a terminal to the Device interface.
type ttyDevice struct{ t *tty.Terminal }

// NewTTYDevice wraps a terminal as a device driver.
func NewTTYDevice(t *tty.Terminal) Device { return ttyDevice{t} }

func (d ttyDevice) Read(p *Proc, max int) ([]byte, errno.Errno) {
	return ttyRead(d.t, p, max)
}

func (d ttyDevice) Write(p *Proc, data []byte) (int, errno.Errno) {
	p.sysCPU(sim.Duration(len(data)) * p.M.Costs.TTYPerByte)
	return d.t.Write(data)
}

func ttyRead(t *tty.Terminal, p *Proc, max int) ([]byte, errno.Errno) {
	p.blockedOn = t.ReadQueue()
	defer func() { p.blockedOn = nil }()
	data, e := t.Read(p.task, max, func() bool {
		// Fatal dispositions do not return; a caught signal interrupts
		// the read (EINTR) so its handler can run.
		return p.deliverSignals()
	})
	if e == 0 {
		p.sysCPU(sim.Duration(len(data)) * p.M.Costs.TTYPerByte)
	}
	return data, e
}

// Terminal extracts the terminal behind a tty device, if it is one.
func (d ttyDevice) Terminal() *tty.Terminal { return d.t }

type terminalHolder interface{ Terminal() *tty.Terminal }

// IsTerminalDevice reports whether d drives a terminal. Kernel-side dump
// code uses it to map terminal-backed files to /dev/tty the way the
// user-level dumpproc command does with isatty.
func IsTerminalDevice(d Device) bool {
	th, ok := d.(terminalHolder)
	return ok && th.Terminal() != nil
}

// nullDevice is /dev/null.
type nullDevice struct{}

// NewNullDevice returns the null device driver.
func NewNullDevice() Device { return nullDevice{} }

func (nullDevice) Read(p *Proc, max int) ([]byte, errno.Errno) { return nil, 0 }
func (nullDevice) Write(p *Proc, data []byte) (int, errno.Errno) {
	return len(data), 0
}
