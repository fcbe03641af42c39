package core

import (
	"strings"

	"procmig/internal/aout"
	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// Install wires the paper's kernel additions — the SIGDUMP dump action and
// the rest_proc system call — into a machine. A machine without Install is
// the unmodified kernel (SIGDUMP then behaves like any fatal signal).
func Install(m *kernel.Machine) {
	m.Hooks = kernel.MigrationHooks{Dump: Dump, RestProc: RestProc}
}

// Dump implements the SIGDUMP kernel action (§5.2): running in the dying
// process's context, write the three restart files to /usr/tmp. "The code
// is similar to that of [SIGQUIT], which causes a process to terminate
// dumping a subset of the information we dump for our new signal."
//
// The a.out file is written last so that a user program polling for it
// (dumpproc) finds all three files once it appears.
func Dump(p *kernel.Proc) errno.Errno {
	m := p.M
	if p.VM == nil {
		// Hosted utility programs have no dumpable machine image.
		return errno.ENOEXEC
	}
	if !m.Config.TrackNames {
		// The unmodified kernel does not know pathnames; dumping is the
		// whole reason for the §5.1 modifications.
		return errno.EINVAL
	}
	aoutPath, filesPath, stackPath := DumpPaths("", p.PID)

	ff := buildFilesFile(p)

	// stack file: credentials, stack, registers, signal dispositions.
	sf := &StackFile{
		Creds:      p.Creds,
		Stack:      p.VM.StackImage(),
		Regs:       p.VM.Snapshot(),
		SigActions: p.SigActions,
		OldPID:     uint32(p.PID),
	}

	// a.out: a real executable whose data segment is the current data.
	// Encode copies the live segments into the file.
	exe := &aout.Exec{ISA: vm.MinISA(p.VM.Text), Entry: p.ExecEntry, Text: p.VM.Text, Data: p.VM.Data}

	costs := m.Costs
	for _, out := range []struct {
		path string
		data []byte
	}{
		{filesPath, ff.Encode()},
		{stackPath, sf.Encode()},
		{aoutPath, exe.Encode()},
	} {
		p.ChargeSys(costs.DumpBase + sim.Duration(len(out.data))*costs.DumpPerByte)
		p.SleepIO(costs.DumpDisk)
		if e := p.WriteFileCharged(out.path, out.data, 0o700); e != 0 {
			return e
		}
	}
	return 0
}

// buildFilesFile captures the files-file contents for p: host, cwd, open
// file table, and terminal flags. Shared by the classic dump and the
// streaming final round.
func buildFilesFile(p *kernel.Proc) *FilesFile {
	m := p.M
	ff := &FilesFile{Host: m.Name, CWD: p.CWD}
	for i, f := range p.FDs {
		switch {
		case f == nil:
			ff.FDs[i] = FDEntry{Kind: FDUnused}
		case f.Kind == kernel.FileInode || f.Kind == kernel.FileDevice:
			ff.FDs[i] = FDEntry{
				Kind:   FDFile,
				Path:   f.Name,
				Flags:  uint32(f.Flags),
				Offset: uint32(f.Offset),
			}
		case f.Kind == kernel.FileSocket && m.Config.SocketMigration &&
			f.Sock != nil && f.Sock.Port != 0:
			// Extension: remember the bound port so restart can re-bind
			// it and have the old machine forward.
			ff.FDs[i] = FDEntry{Kind: FDSocketBound, Port: uint16(f.Sock.Port)}
		default: // pipes and (unbound or base-mechanism) sockets
			ff.FDs[i] = FDEntry{Kind: FDSocket}
		}
	}
	if p.TTY != nil {
		ff.TTY = p.TTY.Flags()
	}
	return ff
}

// RestProc implements the rest_proc(aoutPath, stackPath) system call
// (§5.2): overlay the calling process with the dumped one. It follows the
// paper's steps literally, including the flag coupling with execve (the
// flag is the process's own, not global; see kernel.Proc.SetRestProcMode).
func RestProc(p *kernel.Proc, aoutPath, stackPath string) errno.Errno {
	m := p.M

	// Open the stack file, checking access permissions and the magic
	// number.
	pl, err := m.NS().Resolve(stackPath, true)
	if err != nil {
		return errno.Of(err)
	}
	if e := kernel.CheckAccess(pl.Attr, p.Creds, 4); e != 0 {
		return e
	}
	raw, e := p.ReadFileCharged(stackPath)
	if e != 0 {
		return e
	}
	sf, derr := DecodeStack(raw)
	if derr != nil {
		return errno.ENOEXEC
	}

	// Set the flag indicating process migration and the desired
	// stack size, and call execve on the a.out with a null environment
	// ("as the environment of the old process was stored in its stack, it
	// will be automatically restored when the stack is read in").
	p.SetRestProcMode(true, uint32(len(sf.Stack)))
	execErr := p.Execve(aoutPath, nil, nil)
	p.SetRestProcMode(false, 0)
	if execErr != 0 {
		return execErr
	}

	// Set the user credentials to those already read. (The old
	// credentials were used to execute the a.out file, so that only the
	// owner of the process or the superuser is able to do it.)
	p.Creds = sf.Creds

	// Read in the contents of the stack and registers. execve allocated
	// the stack at exactly this size.
	copy(p.VM.Stack, sf.Stack)
	p.VM.Restore(sf.Regs)
	p.ChargeSys(sim.Duration(len(sf.Stack)) * m.Costs.DumpPerByte)

	// Read in the disposition of signals.
	p.SigActions = sf.SigActions

	// Record pre-migration identity (for the §7 spoofing extension) and
	// wake anyone waiting for the restart to "complete".
	p.NotifyMigrated(int(sf.OldPID), readFilesForHost(p, aoutPath, stackPath))

	// At this point, the process running is a copy of the old process.
	return 0
}

// readFilesForHost best-effort recovers the original host name from the
// files file sitting next to the stack file (for the spoofing extension;
// failures are harmless).
func readFilesForHost(p *kernel.Proc, aoutPath, stackPath string) string {
	if len(stackPath) < len(StackPrefix) {
		return ""
	}
	// .../stackXXXXX -> .../filesXXXXX
	i := strings.LastIndex(stackPath, "/"+StackPrefix)
	if i < 0 {
		return ""
	}
	filesPath := stackPath[:i+1] + FilesPrefix + stackPath[i+1+len(StackPrefix):]
	raw, e := p.ReadFileCharged(filesPath)
	if e != 0 {
		return ""
	}
	ff, err := DecodeFiles(raw)
	if err != nil {
		return ""
	}
	return ff.Host
}
