package kernel

import (
	"procmig/internal/errno"
	"procmig/internal/sim"
	"procmig/internal/tty"
	"procmig/internal/vfs"
)

// Sys is the system-call interface hosted user programs are written
// against — the same operations VM programs reach through the SYS
// instruction. Most of the paper's implementation is user-level code on
// top of exactly this interface (§4).
type Sys struct {
	p *Proc
}

// NewSysForTest builds a Sys for p. It is exported for white-box testing
// of user programs; simulated code receives its Sys from the kernel.
func NewSysForTest(p *Proc) *Sys { return &Sys{p: p} }

// enter delivers pending signals at the syscall boundary, as the real
// kernel does on the way in from user mode, and counts the call.
func (s *Sys) enter() {
	s.p.M.kobs.syscalls.Inc()
	s.p.deliverSignals()
}

// Proc returns the calling process (introspection for tests and ps).
func (s *Sys) Proc() *Proc { return s.p }

// Open opens path with the given access flags.
func (s *Sys) Open(path string, flags int) (int, errno.Errno) {
	s.enter()
	return s.p.open(path, flags)
}

// Creat creates (or truncates) path and opens it for writing.
func (s *Sys) Creat(path string, mode uint16) (int, errno.Errno) {
	s.enter()
	return s.p.creat(path, mode)
}

// Close closes a descriptor.
func (s *Sys) Close(fd int) errno.Errno {
	s.enter()
	return s.p.closeFD(fd)
}

// Read reads up to n bytes from fd.
func (s *Sys) Read(fd, n int) ([]byte, errno.Errno) {
	s.enter()
	return s.p.read(fd, n)
}

// Write writes data to fd.
func (s *Sys) Write(fd int, data []byte) (int, errno.Errno) {
	s.enter()
	return s.p.write(fd, data)
}

// Lseek repositions fd.
func (s *Sys) Lseek(fd int, off int64, whence int) (int64, errno.Errno) {
	s.enter()
	return s.p.lseek(fd, off, whence)
}

// Chdir changes the current directory.
func (s *Sys) Chdir(path string) errno.Errno {
	s.enter()
	return s.p.chdir(path)
}

// Getcwd reports the current directory (the u-area name).
func (s *Sys) Getcwd() string { return s.p.CWD }

// Stat stats path, following symlinks.
func (s *Sys) Stat(path string) (vfs.Attr, errno.Errno) {
	s.enter()
	return s.p.stat(path)
}

// Lstat stats path without following a final symlink.
func (s *Sys) Lstat(path string) (vfs.Attr, errno.Errno) {
	s.enter()
	return s.p.lstat(path)
}

// Readlink reads a symlink's target.
func (s *Sys) Readlink(path string) (string, errno.Errno) {
	s.enter()
	return s.p.readlink(path)
}

// Symlink creates a symlink at path pointing at target.
func (s *Sys) Symlink(target, path string) errno.Errno {
	s.enter()
	return s.p.symlink(target, path)
}

// Mkdir creates a directory.
func (s *Sys) Mkdir(path string, mode uint16) errno.Errno {
	s.enter()
	return s.p.mkdir(path, mode)
}

// Unlink removes a name.
func (s *Sys) Unlink(path string) errno.Errno {
	s.enter()
	return s.p.unlink(path)
}

// Pipe creates a pipe, returning the read and write descriptors.
func (s *Sys) Pipe() (int, int, errno.Errno) {
	s.enter()
	return s.p.pipeFDs()
}

// Socket creates a datagram socket descriptor.
func (s *Sys) Socket() (int, errno.Errno) {
	s.enter()
	return s.p.socket()
}

// Bind claims a datagram port for fd on this machine.
func (s *Sys) Bind(fd, port int) errno.Errno {
	s.enter()
	return s.p.bind(fd, port)
}

// SendTo sends one datagram to host:port.
func (s *Sys) SendTo(fd int, host string, port int, data []byte) errno.Errno {
	s.enter()
	return s.p.sendto(fd, host, port, data)
}

// RecvFrom blocks until a datagram arrives on fd.
func (s *Sys) RecvFrom(fd, max int) ([]byte, errno.Errno) {
	s.enter()
	return s.p.recvfrom(fd, max)
}

// RequestForward asks oldHost to relay datagrams for port to this
// machine — used by restart under the socket-migration extension.
func (s *Sys) RequestForward(oldHost string, port int) errno.Errno {
	s.enter()
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	if s.p.M.NetStackRef() == nil {
		return errno.ENODEV
	}
	return s.p.M.NetStackRef().RequestForward(oldHost, port)
}

// Gtty reads terminal flags from fd (ioctl TIOCGETP).
func (s *Sys) Gtty(fd int) (tty.Flags, errno.Errno) {
	s.enter()
	return s.p.ioctlGetTTY(fd)
}

// Stty sets terminal flags on fd (ioctl TIOCSETP).
func (s *Sys) Stty(fd int, flags tty.Flags) errno.Errno {
	s.enter()
	return s.p.ioctlSetTTY(fd, flags)
}

// Getpid reports the process id (the pre-migration id under the §7
// spoofing extension).
func (s *Sys) Getpid() int {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.apparentPID()
}

// Getrealpid reports the true process id regardless of migration.
func (s *Sys) Getrealpid() int {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.PID
}

// Getppid reports the parent process id.
func (s *Sys) Getppid() int {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.PPID
}

// Gethostname reports the host name (pre-migration under spoofing).
func (s *Sys) Gethostname() string {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.apparentHost()
}

// Getrealhostname reports the true host name regardless of migration.
func (s *Sys) Getrealhostname() string {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.M.Name
}

// Getuid reports the real user id.
func (s *Sys) Getuid() int {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.Creds.UID
}

// Geteuid reports the effective user id.
func (s *Sys) Geteuid() int {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.Creds.EUID
}

// Setreuid sets the real and effective user ids (-1 leaves one alone).
func (s *Sys) Setreuid(ruid, euid int) errno.Errno {
	s.enter()
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.setreuid(ruid, euid)
}

// Kill sends sig to pid on this machine.
func (s *Sys) Kill(pid int, sig Signal) errno.Errno {
	s.enter()
	s.p.sysCPU(s.p.M.Costs.SyscallBase + s.p.M.Costs.SignalPost)
	return s.p.M.Kill(s.p.Creds, pid, sig)
}

// Signal sets the disposition of sig.
func (s *Sys) Signal(sig Signal, act SigAction) errno.Errno {
	s.enter()
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	if sig <= 0 || sig >= NSIG || sig == SIGKILL {
		return errno.EINVAL
	}
	s.p.SigActions[sig] = act
	return 0
}

// Wait blocks until a child exits and reaps it, returning (pid, status).
func (s *Sys) Wait() (int, int, errno.Errno) {
	s.enter()
	return s.p.wait()
}

// WaitRestarted blocks until the child pid exits (reaping it and returning
// its status) or is overlaid by a successful rest_proc (returning 0 and
// leaving it running). migrate needs this: a restart that succeeds never
// exits — it has become the migrated process.
func (s *Sys) WaitRestarted(pid int) (int, errno.Errno) {
	s.enter()
	p := s.p
	p.sysCPU(p.M.Costs.SyscallBase)
	for {
		child, ok := p.M.FindProc(pid)
		if !ok || child.PPID != p.PID {
			return 0, errno.ECHILD
		}
		if child.State == ProcZombie {
			child.State = ProcDead
			p.M.removeProc(pid)
			return child.ExitStatus, 0
		}
		if child.Migrated && child.State == ProcRunning {
			return 0, 0
		}
		if p.blockOn(&p.childQ) {
			return 0, errno.EINTR
		}
	}
}

// Sleep pauses for d of virtual time (interruptible by signals).
func (s *Sys) Sleep(d sim.Duration) {
	s.enter()
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	s.p.sleep(d)
}

// Gettime reports the current virtual time (gettimeofday).
func (s *Sys) Gettime() sim.Time {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.task.Now()
}

// Compute burns d of user CPU time — a hosted program's stand-in for
// computation.
func (s *Sys) Compute(d sim.Duration) {
	s.enter()
	s.p.userCPU(d)
}

// Exit terminates the calling process. It does not return.
func (s *Sys) Exit(status int) {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	s.p.die(status, 0)
}

// Execve overlays the process with a new program. On success it does not
// return: the new image runs and the process eventually exits.
func (s *Sys) Execve(path string, args, env []string) errno.Errno {
	s.enter()
	if e := s.p.execve(path, args, env); e != 0 {
		return e
	}
	s.p.runImage() // never returns
	return 0
}

// RestProc invokes the paper's new system call: overlay the calling
// process with the dumped process described by the a.out and stack files.
// On success it does not return — the restored image resumes where it was
// dumped (§4.3).
func (s *Sys) RestProc(aoutPath, stackPath string) errno.Errno {
	s.enter()
	if e := s.p.restProc(s.p.abspath(aoutPath), s.p.abspath(stackPath)); e != 0 {
		return e
	}
	s.p.runImage() // never returns
	return 0
}

// Spawn creates a child process running path — fork+exec in one call
// (hosted programs cannot fork mid-Go-function).
func (s *Sys) Spawn(path string, args, env []string) (int, errno.Errno) {
	s.enter()
	p := s.p
	p.sysCPU(p.M.Costs.SyscallBase)
	child, err := p.M.Spawn(SpawnSpec{
		Path: path, Args: args, Env: env,
		Creds: p.Creds, CWD: p.CWD, TTY: p.TTY,
		InheritFDs: p.FDs[:], PPID: p.PID,
	})
	if err != nil {
		return -1, errno.Of(err)
	}
	return child.PID, 0
}

// PS lists the machine's process table (what ps(1) digs out of /dev/kmem).
func (s *Sys) PS() []ProcInfo {
	s.p.sysCPU(s.p.M.Costs.SyscallBase)
	return s.p.M.PS()
}

// Hostname of the machine the process is really on; used by user programs
// like dumpproc that must name the local machine in /n paths.
func (s *Sys) Machine() *Machine { return s.p.M }
