package kernel

import (
	"fmt"

	"procmig/internal/aout"
	"procmig/internal/errno"
	"procmig/internal/sim"
	"procmig/internal/vfs"
	"procmig/internal/vm"
)

// SetRestProcMode sets or clears the paper's §5.2 coupling between
// rest_proc and execve: while the flag is set, execve allocates stackSize
// bytes of initial stack instead of building an argument/environment stack.
// Only the core package's rest_proc implementation uses this.
func (m *Machine) SetRestProcMode(on bool, stackSize uint32) {
	m.restProcFlag = on
	m.restProcStackSize = stackSize
}

// Execve is the exported execve(2) for kernel-adjacent code (rest_proc).
func (p *Proc) Execve(path string, args, env []string) errno.Errno {
	return p.execve(path, args, env)
}

// execve overlays the process with the executable at path. On success the
// new image (VM or hosted) is installed; the caller resumes it via
// runImage (VM processes continue their interpreter loop naturally).
func (p *Proc) execve(path string, args, env []string) errno.Errno {
	m := p.M
	startReal, startCPU := p.task.Now(), p.STime
	e := p.execveInner(path, args, env)
	m.trace(p, "execve", "%q = %v", path, e)
	m.Metrics.LastExecve = OpTiming{
		CPU:  p.STime - startCPU,
		Real: sim.Duration(p.task.Now() - startReal),
	}
	return e
}

func (p *Proc) execveInner(path string, args, env []string) errno.Errno {
	m := p.M
	p.sysCPU(m.Costs.SyscallBase + m.Costs.ExecBase)
	abs := p.abspath(path)
	p.nameiCharge(abs)

	pl, err := m.ns.Resolve(abs, true)
	if err != nil {
		return errno.Of(err)
	}
	if pl.Attr.Type != vfs.TypeFile {
		return errno.EACCES
	}
	if e := checkAccess(pl.Attr, p.Creds, 1); e != 0 { // execute bit
		return e
	}
	raw, err := pl.FS.ReadAt(pl.Node, 0, int(pl.Attr.Size))
	if err != nil {
		return errno.Of(err)
	}
	p.diskCharge(pl, len(raw))

	if aout.IsHosted(raw) {
		name, err := aout.DecodeHosted(raw)
		if err != nil {
			return errno.ENOEXEC
		}
		fn, ok := m.registry[name]
		if !ok {
			return errno.ENOEXEC
		}
		p.VM = nil
		p.hosted = fn
		p.hostedArgs = args
		p.Cmd = abs
		return 0
	}

	exe, err := aout.Decode(raw)
	if err != nil {
		return errno.ENOEXEC
	}
	if exe.ISA > m.ISA {
		return errno.ENOEXEC
	}
	p.sysCPU(sim.Duration(len(exe.Text)+len(exe.Data)) * m.Costs.ExecPerByte)

	cpu := vm.New(exe.Text, append([]byte(nil), exe.Data...), m.ISA)
	cpu.PC = exe.Entry
	if m.restProcFlag {
		// Called from rest_proc: allocate exactly the dumped process's
		// stack size; rest_proc fills in the contents and registers.
		cpu.SetStackImage(make([]byte, m.restProcStackSize))
	} else {
		setupStack(cpu, args, env)
	}
	p.VM = cpu
	p.hosted = nil
	p.ExecEntry = exe.Entry
	p.Cmd = abs
	return 0
}

// setupStack lays out the exec ABI: the environment block, then the
// argument block, both NUL-separated string sequences, pushed onto the
// stack (the paper relies on the environment living in the stack so that
// rest_proc restores it for free). Registers: r0=argc, r1=&args, r2=envc,
// r3=&env.
func setupStack(cpu *vm.CPU, args, env []string) {
	pushBlock := func(strs []string) uint32 {
		var blob []byte
		for _, s := range strs {
			blob = append(blob, s...)
			blob = append(blob, 0)
		}
		if len(blob) == 0 {
			blob = []byte{0}
		}
		sp := cpu.R[vm.RegSP] - uint32(len(blob))
		sp &^= 3 // keep word alignment
		cpu.WriteBytes(sp, blob)
		cpu.R[vm.RegSP] = sp
		return sp
	}
	envAddr := pushBlock(env)
	argAddr := pushBlock(args)
	cpu.R[0] = uint32(len(args))
	cpu.R[1] = argAddr
	cpu.R[2] = uint32(len(env))
	cpu.R[3] = envAddr
}

// fork implements fork(2) for VM processes: a child with a copy of the
// address space, shared open files, and the same signal table.
func (p *Proc) fork() (int, errno.Errno) {
	m := p.M
	if p.VM == nil {
		return -1, errno.EINVAL // hosted programs use Spawn
	}
	p.sysCPU(m.Costs.SyscallBase + m.Costs.SpawnBase)
	p.sysCPU(sim.Duration(len(p.VM.Data)+len(p.VM.Stack)) * m.Costs.ExecPerByte)

	child := m.newProc(p.Creds, p.CWD, p.TTY)
	child.PPID = p.PID
	child.Cmd = p.Cmd
	child.SigActions = p.SigActions
	child.ExecEntry = p.ExecEntry
	for i, f := range p.FDs {
		if f != nil {
			f.refs++
			child.FDs[i] = f
		}
	}
	ccpu := vm.New(p.VM.Text, append([]byte(nil), p.VM.Data...), m.ISA)
	ccpu.Restore(p.VM.Snapshot())
	ccpu.Stack = append([]byte(nil), p.VM.Stack...)
	ccpu.R[0] = 0 // fork returns 0 in the child
	ccpu.R[1] = 0
	child.VM = ccpu

	m.trace(p, "fork", "child pid %d", child.PID)
	m.eng.Go(fmt.Sprintf("%s:pid%d:%s", m.Name, child.PID, child.Cmd), func(t *sim.Task) {
		child.task = t
		child.StartedAt = t.Now()
		child.run(child.runImage)
	})
	return child.PID, 0
}

// wait implements wait(2): reap one zombie child, the lowest pid first,
// blocking until one exists. A migrated process has left its children
// behind (§7), so it gets ECHILD here — the documented "undefined
// results" caveat.
func (p *Proc) wait() (int, int, errno.Errno) {
	p.sysCPU(p.M.Costs.SyscallBase)
	for {
		hasChild := false
		for _, q := range p.M.procs {
			if q.PPID != p.PID || q == p {
				continue
			}
			hasChild = true
			if q.State == ProcZombie {
				q.State = ProcDead
				p.M.removeProc(q.PID)
				status := q.ExitStatus<<8 | int(q.KilledBy)
				return q.PID, status, 0
			}
		}
		if !hasChild {
			return -1, 0, errno.ECHILD
		}
		if p.blockOn(&p.childQ) {
			return -1, 0, errno.EINTR
		}
	}
}

// writeCore writes the 4.2BSD-style core file ("dumping a subset of the
// information we dump for our new signal", §5.2) into the process's
// current directory.
func (p *Proc) writeCore() {
	if p.VM == nil {
		return
	}
	startReal, startCPU := p.task.Now(), p.STime
	core := &aout.Core{
		ISA:   p.VM.ISA,
		Entry: p.ExecEntry,
		Regs:  p.VM.Snapshot(),
		Data:  append([]byte(nil), p.VM.Data...),
		Stack: p.VM.StackImage(),
	}
	raw := core.Encode()
	p.sysCPU(p.M.Costs.DumpBase + sim.Duration(len(raw))*p.M.Costs.DumpPerByte)
	p.SleepIO(p.M.Costs.DumpDisk)
	p.WriteFileCharged(vfs.JoinPath(p.CWD, "core"), raw, 0o600)
	p.M.Metrics.LastCore = OpTiming{
		CPU:  p.STime - startCPU,
		Real: sim.Duration(p.task.Now() - startReal),
	}
}

// WriteFileCharged creates or truncates abs and writes data, charging
// namei and disk costs — a kernel-internal file write used by the dump
// paths (the files are created by the dying process itself, as with core
// dumps; dumpproc then has to wait for them, which is Figure 2's CPU/real
// gap).
func (p *Proc) WriteFileCharged(abs string, data []byte, mode uint16) errno.Errno {
	p.nameiCharge(abs)
	ns := p.M.ns
	var pl vfs.Place
	if existing, err := ns.Resolve(abs, true); err == nil {
		if existing.Attr.Type != vfs.TypeFile {
			return errno.EINVAL
		}
		if err := existing.FS.Truncate(existing.Node, 0); err != nil {
			return errno.Of(err)
		}
		pl = existing
	} else {
		dir, base, err := ns.ResolveParent(abs)
		if err != nil {
			return errno.Of(err)
		}
		node, err := dir.FS.Create(dir.Node, base, mode, p.Creds.EUID, p.Creds.EGID)
		if err != nil {
			return errno.Of(err)
		}
		attr, _ := dir.FS.Getattr(node)
		pl = vfs.Place{FS: dir.FS, Node: node, Attr: attr, Canon: dir.Canon + "/" + base}
	}
	if _, err := pl.FS.WriteAt(pl.Node, 0, data); err != nil {
		return errno.Of(err)
	}
	p.diskCharge(pl, len(data))
	return 0
}

// ReadFileCharged reads the whole file at abs, charging namei and disk
// costs — the kernel-internal read rest_proc uses for the dump files.
func (p *Proc) ReadFileCharged(abs string) ([]byte, errno.Errno) {
	p.nameiCharge(abs)
	pl, err := p.M.ns.Resolve(abs, true)
	if err != nil {
		return nil, errno.Of(err)
	}
	if pl.Attr.Type != vfs.TypeFile {
		return nil, errno.EINVAL
	}
	data, err := pl.FS.ReadAt(pl.Node, 0, int(pl.Attr.Size))
	if err != nil {
		return nil, errno.Of(err)
	}
	p.diskCharge(pl, len(data))
	return data, 0
}

// runVM is the interpreter loop for a VM process.
func (p *Proc) runVM() {
	// Execute (and charge) CPU in quantum-sized batches: smaller batches
	// would interleave with other runnable processes more often than the
	// scheduler quantum allows and pay spurious context switches.
	batch := int(p.M.Costs.Quantum * p.M.Costs.InstrPerUS / sim.Microsecond)
	if batch < 256 {
		batch = 256
	}
	cpu := p.VM
	for {
		p.deliverSignals()
		if p.VM != cpu { // image replaced (execve from VM code)
			cpu = p.VM
		}
		steps := 0
		res := vm.StepOK
		for steps < batch {
			res = cpu.Step()
			steps++
			if res != vm.StepOK {
				break
			}
		}
		p.userCPU(sim.Duration(steps) * sim.Microsecond / p.M.Costs.InstrPerUS)
		switch res {
		case vm.StepOK:
		case vm.StepHalt:
			p.die(int(cpu.R[0]), 0)
		case vm.StepSyscall:
			p.inSyscall = true
			p.syscallPC = cpu.PC - 2 // SYS is opcode + imm8
			p.vmSyscall()
			p.inSyscall = false
			if p.VM != cpu {
				cpu = p.VM
			}
		case vm.StepFault:
			p.faultSignal(cpu.Fault)
			cpu.Fault = nil
		}
	}
}

// faultSignal converts a processor fault into the corresponding signal.
func (p *Proc) faultSignal(f *vm.Fault) {
	var sig Signal
	switch f.Kind {
	case vm.FaultIllegal, vm.FaultISA:
		sig = SIGILL
	case vm.FaultDivide:
		sig = SIGFPE
	case vm.FaultMemory, vm.FaultStackLimit:
		sig = SIGSEGV
	default:
		sig = SIGILL
	}
	p.postSignal(sig)
	p.deliverSignals() // default action: die with core
	// If the signal was caught or ignored, execution resumes; for an
	// uncaught re-executing fault the handler is expected to repair state.
}
