package kernel

import (
	"strings"
	"testing"

	"procmig/internal/aout"
	"procmig/internal/errno"
	"procmig/internal/sim"
	"procmig/internal/tty"
	"procmig/internal/vfs"
	"procmig/internal/vm"
	"procmig/internal/vm/asm"
)

// testWorld is one machine with devices, a terminal and standard dirs.
type testWorld struct {
	eng  *sim.Engine
	m    *Machine
	term *tty.Terminal
}

func newWorld(t *testing.T, cfg Config) *testWorld {
	t.Helper()
	eng := sim.NewEngine()
	m := NewMachine(eng, "brick", vm.ISA1, cfg)
	ns := m.NS()
	for _, d := range []string{"/dev", "/bin", "/etc"} {
		if err := ns.MkdirAll(d, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// World-writable scratch and home, like the real /usr/tmp.
	for _, d := range []string{"/usr/tmp", "/home"} {
		if err := ns.MkdirAll(d, 0o777, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	term := tty.New(eng, "console")
	ttyDev := m.RegisterDevice(NewTTYDevice(term))
	nullDev := m.RegisterDevice(NewNullDevice())
	mknod := func(path string, dev vfs.DevID) {
		dir, base, err := ns.ResolveParent(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.FS.Mknod(dir.Node, base, dev, 0o666, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	mknod("/dev/console", ttyDev)
	mknod("/dev/null", nullDev)
	mknod("/dev/tty", DevCurrentTTY)
	return &testWorld{eng: eng, m: m, term: term}
}

// install writes a VM executable at path.
func (w *testWorld) install(t *testing.T, path, src string) {
	t.Helper()
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.m.NS().WriteFile(path, exe.Encode(), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// installHosted registers fn and writes its stub at path.
func (w *testWorld) installHosted(t *testing.T, path, name string, fn HostedProg) {
	t.Helper()
	w.m.RegisterProgram(name, fn)
	if err := w.m.NS().WriteFile(path, aout.EncodeHosted(name), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// user is a plain non-root credential set.
var user = Creds{UID: 100, GID: 10, EUID: 100, EGID: 10}

func (w *testWorld) spawn(t *testing.T, path string, args ...string) *Proc {
	t.Helper()
	p, err := w.m.Spawn(SpawnSpec{
		Path: path, Args: append([]string{path}, args...),
		Creds: user, CWD: "/home", TTY: w.term,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (w *testWorld) run(t *testing.T) {
	t.Helper()
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHostedProgramRunsAndExits(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var gotArgs []string
	w.installHosted(t, "/bin/hello", "hello", func(sys *Sys, args []string) int {
		gotArgs = args
		fd, e := sys.Creat("/usr/tmp/out", 0o644)
		if e != 0 {
			return 1
		}
		sys.Write(fd, []byte("hi from hosted\n"))
		sys.Close(fd)
		return 7
	})
	p := w.spawn(t, "/bin/hello", "a1", "a2")
	w.run(t)
	if p.State != ProcDead && p.State != ProcZombie {
		t.Fatalf("state = %v", p.State)
	}
	if p.ExitStatus != 7 {
		t.Fatalf("status = %d", p.ExitStatus)
	}
	if len(gotArgs) != 3 || gotArgs[1] != "a1" {
		t.Fatalf("args = %v", gotArgs)
	}
	data, err := w.m.NS().ReadFile("/usr/tmp/out")
	if err != nil || string(data) != "hi from hosted\n" {
		t.Fatalf("data = %q err = %v", data, err)
	}
}

// The VM hello program: write a string to fd 1.
const vmHello = `
start:  movi r0, 1        ; fd
        movi r1, msg
        movi r2, 6        ; len
        sys  write
        movi r0, 0
        sys  exit
        .data
msg:    .ascii "hello\n"
`

func TestVMProgramWritesToTTY(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/hello", vmHello)
	// Give the process fd 0/1/2 on the terminal by opening them in a
	// wrapper hosted program... simpler: spawn with inherited fds.
	opener := func(sys *Sys, args []string) int {
		fd, e := sys.Open("/dev/tty", O_RDWR)
		if e != 0 || fd != 0 {
			return 1
		}
		sys.Open("/dev/tty", O_RDWR) // fd 1
		sys.Open("/dev/tty", O_RDWR) // fd 2
		pid, e := sys.Spawn("/bin/hello", nil, nil)
		if e != 0 {
			return 2
		}
		_ = pid
		sys.Wait()
		return 0
	}
	w.installHosted(t, "/bin/opener", "opener", opener)
	p := w.spawn(t, "/bin/opener")
	w.run(t)
	if p.ExitStatus != 0 {
		t.Fatalf("status = %d", p.ExitStatus)
	}
	if got := w.term.Output(); got != "hello\n" {
		t.Fatalf("tty output = %q", got)
	}
}

func TestVMFileIO(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/fio", `
start:  movi r0, path
        movi r1, 0644
        sys  creat        ; r0 = fd
        mov  r4, r0
        mov  r0, r4
        movi r1, msg
        movi r2, 4
        sys  write
        mov  r0, r4
        sys  close
        movi r0, 0
        sys  exit
        .data
path:   .asciz "/usr/tmp/vmfile"
msg:    .ascii "data"
`)
	p := w.spawn(t, "/bin/fio")
	w.run(t)
	if p.ExitStatus != 0 || p.KilledBy != 0 {
		t.Fatalf("status = %d killed = %v", p.ExitStatus, p.KilledBy)
	}
	data, err := w.m.NS().ReadFile("/usr/tmp/vmfile")
	if err != nil || string(data) != "data" {
		t.Fatalf("data = %q err = %v", data, err)
	}
}

func TestRelativePathsUseCWD(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/rel", "rel", func(sys *Sys, args []string) int {
		if e := sys.Chdir("/usr/tmp"); e != 0 {
			return 1
		}
		fd, e := sys.Creat("relfile", 0o644)
		if e != 0 {
			return 2
		}
		sys.Write(fd, []byte("x"))
		sys.Close(fd)
		if e := sys.Chdir(".."); e != 0 {
			return 3
		}
		if sys.Getcwd() != "/usr" {
			return 4
		}
		return 0
	})
	p := w.spawn(t, "/bin/rel")
	w.run(t)
	if p.ExitStatus != 0 {
		t.Fatalf("status = %d", p.ExitStatus)
	}
	if _, err := w.m.NS().ReadFile("/usr/tmp/relfile"); err != nil {
		t.Fatal(err)
	}
}

func TestFileStructureTracksName(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var name string
	w.installHosted(t, "/bin/n", "n", func(sys *Sys, args []string) int {
		sys.Chdir("/usr/tmp")
		fd, _ := sys.Creat("f", 0o644)
		name = sys.Proc().FDs[fd].Name
		return 0
	})
	w.spawn(t, "/bin/n")
	w.run(t)
	if name != "/usr/tmp/f" {
		t.Fatalf("tracked name = %q, want lexical absolute path", name)
	}
}

func TestBaselineKernelDoesNotTrackNames(t *testing.T) {
	w := newWorld(t, Config{TrackNames: false})
	var name string
	w.installHosted(t, "/bin/n", "n", func(sys *Sys, args []string) int {
		fd, _ := sys.Creat("/usr/tmp/f", 0o644)
		name = sys.Proc().FDs[fd].Name
		return 0
	})
	w.spawn(t, "/bin/n")
	w.run(t)
	if name != "" {
		t.Fatalf("baseline kernel tracked name %q", name)
	}
	if w.m.NameBytes != 0 {
		t.Fatalf("baseline kernel allocated %d name bytes", w.m.NameBytes)
	}
}

func TestTrackingCostsMore(t *testing.T) {
	measure := func(track bool) sim.Duration {
		w := newWorld(t, Config{TrackNames: track})
		var stime sim.Duration
		w.installHosted(t, "/bin/loop", "loop", func(sys *Sys, args []string) int {
			sys.Creat("/usr/tmp/target", 0o644) // ensure it exists
			before := sys.Proc().STime
			for i := 0; i < 100; i++ {
				fd, e := sys.Open("/usr/tmp/target", O_RDONLY)
				if e != 0 {
					return 1
				}
				sys.Close(fd)
			}
			stime = sys.Proc().STime - before
			return 0
		})
		w.spawn(t, "/bin/loop")
		w.run(t)
		return stime
	}
	base := measure(false)
	tracked := measure(true)
	if tracked <= base {
		t.Fatalf("tracking (%v) not more expensive than baseline (%v)", tracked, base)
	}
	ratio := float64(tracked) / float64(base)
	if ratio < 1.1 || ratio > 2.0 {
		t.Fatalf("open/close tracking overhead ratio = %.2f, want within (1.1, 2.0)", ratio)
	}
}

func TestNameMemoryAccounting(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var during int64
	w.installHosted(t, "/bin/mem", "mem", func(sys *Sys, args []string) int {
		fd, _ := sys.Creat("/usr/tmp/abcdef", 0o644)
		during = sys.Machine().NameBytes
		sys.Close(fd)
		return 0
	})
	w.spawn(t, "/bin/mem")
	w.run(t)
	if during != int64(len("/usr/tmp/abcdef")+1) {
		t.Fatalf("NameBytes during = %d", during)
	}
	if w.m.NameBytes != 0 {
		t.Fatalf("NameBytes after close = %d", w.m.NameBytes)
	}
}

func TestFixedNameStorageAblation(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true, FixedNameStorage: true})
	w.installHosted(t, "/bin/mem", "mem", func(sys *Sys, args []string) int {
		sys.Creat("/usr/tmp/x", 0o644)
		return 0
	})
	w.spawn(t, "/bin/mem")
	w.run(t)
	if w.m.NameBytesPeak != MaxPathLen {
		t.Fatalf("peak = %d, want %d", w.m.NameBytesPeak, MaxPathLen)
	}
}

func TestOffsetsAndLseek(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.m.NS().WriteFile("/etc/f", []byte("0123456789"), 0o644, 0, 0)
	w.installHosted(t, "/bin/seek", "seek", func(sys *Sys, args []string) int {
		fd, e := sys.Open("/etc/f", O_RDONLY)
		if e != 0 {
			return 1
		}
		if d, _ := sys.Read(fd, 3); string(d) != "012" {
			return 2
		}
		if pos, _ := sys.Lseek(fd, 2, SeekCur); pos != 5 {
			return 3
		}
		if d, _ := sys.Read(fd, 2); string(d) != "56" {
			return 4
		}
		if pos, _ := sys.Lseek(fd, -1, SeekEnd); pos != 9 {
			return 5
		}
		if d, _ := sys.Read(fd, 5); string(d) != "9" {
			return 6
		}
		if _, e := sys.Lseek(fd, -100, SeekSet); e != errno.EINVAL {
			return 7
		}
		return 0
	})
	p := w.spawn(t, "/bin/seek")
	w.run(t)
	if p.ExitStatus != 0 {
		t.Fatalf("status = %d", p.ExitStatus)
	}
}

func TestPermissions(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.m.NS().WriteFile("/etc/secret", []byte("s"), 0o600, 0, 0) // owned by root
	var openErr, killErr errno.Errno
	w.installHosted(t, "/bin/p", "p", func(sys *Sys, args []string) int {
		_, openErr = sys.Open("/etc/secret", O_RDONLY)
		killErr = sys.Kill(99999, SIGTERM)
		return 0
	})
	w.spawn(t, "/bin/p")
	w.run(t)
	if openErr != errno.EACCES {
		t.Fatalf("open err = %v, want EACCES", openErr)
	}
	if killErr != errno.ESRCH {
		t.Fatalf("kill err = %v, want ESRCH", killErr)
	}
}

func TestKillPermissionDenied(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/victim", "victim", func(sys *Sys, args []string) int {
		sys.Sleep(100 * sim.Second)
		return 0
	})
	victim := w.spawn(t, "/bin/victim")
	other := Creds{UID: 200, GID: 20, EUID: 200, EGID: 20}
	w.installHosted(t, "/bin/killer", "killer", func(sys *Sys, args []string) int {
		sys.Sleep(sim.Second)
		if e := sys.Kill(victim.PID, SIGKILL); e != errno.EPERM {
			return 1
		}
		return 0
	})
	k, err := w.m.Spawn(SpawnSpec{Path: "/bin/killer", Creds: other, CWD: "/", TTY: w.term})
	if err != nil {
		t.Fatal(err)
	}
	// Victim sleeps 100s; the engine will finish once both exit (victim
	// by sleeping out).
	w.run(t)
	if k.ExitStatus != 0 {
		t.Fatalf("killer status = %d", k.ExitStatus)
	}
}

func TestSignalKillsSleepingProcess(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/sleepy", "sleepy", func(sys *Sys, args []string) int {
		sys.Sleep(1000 * sim.Second)
		return 0
	})
	victim := w.spawn(t, "/bin/sleepy")
	w.installHosted(t, "/bin/killer", "killer", func(sys *Sys, args []string) int {
		sys.Sleep(2 * sim.Second)
		return int(sys.Kill(victim.PID, SIGTERM))
	})
	w.spawn(t, "/bin/killer")
	w.run(t)
	if victim.KilledBy != SIGTERM {
		t.Fatalf("killed by %v", victim.KilledBy)
	}
	if w.eng.Now() > sim.Time(10*sim.Second) {
		t.Fatalf("victim did not die promptly: now = %v", w.eng.Now())
	}
}

// TestArmedDumpRunsOnceInPlaceOfHook: SIGDUMP runs the process's armed
// dump action instead of Hooks.Dump, once, and exit clears an arm that
// never ran.
func TestArmedDumpRunsOnceInPlaceOfHook(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var ran []string
	resume := func(name string) func(*Proc) errno.Errno {
		return func(*Proc) errno.Errno {
			ran = append(ran, name)
			return errno.ERESTART // abort the dump: the process keeps running
		}
	}
	w.m.Hooks.Dump = resume("hook")
	w.installHosted(t, "/bin/sleepy", "sleepy", func(sys *Sys, args []string) int {
		for i := 0; i < 10; i++ {
			sys.Sleep(10 * sim.Second)
		}
		return 0
	})
	p := w.spawn(t, "/bin/sleepy")
	w.eng.Go("driver", func(tk *sim.Task) {
		tk.Sleep(sim.Second)
		p.ArmedDump = resume("armed")
		w.m.Kill(user, p.PID, SIGDUMP)
		tk.Sleep(5 * sim.Second)
		w.m.Kill(user, p.PID, SIGDUMP)
		tk.Sleep(5 * sim.Second)
		p.ArmedDump = resume("never")
	})
	w.run(t)
	if got := strings.Join(ran, ","); got != "armed,hook" {
		t.Fatalf("dump actions ran %q, want \"armed,hook\"", got)
	}
	if p.State == ProcRunning || p.KilledBy != 0 {
		t.Fatalf("process state %v killed by %v, want a normal exit", p.State, p.KilledBy)
	}
	if p.ArmedDump != nil {
		t.Fatal("exit left the process armed")
	}
}

func TestSIGQUITWritesCore(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/spin", `
start:  movi r5, 0x1234
        st   r5, marker
loop:   addi r6, 1
        jmp  loop
        .data
marker: .word 0
`)
	victim := w.spawn(t, "/bin/spin")
	w.installHosted(t, "/bin/killer", "killer", func(sys *Sys, args []string) int {
		sys.Sleep(time1s)
		return int(sys.Kill(victim.PID, SIGQUIT))
	})
	w.spawn(t, "/bin/killer")
	w.run(t)
	if victim.KilledBy != SIGQUIT {
		t.Fatalf("killed by %v", victim.KilledBy)
	}
	raw, err := w.m.NS().ReadFile("/home/core")
	if err != nil {
		t.Fatalf("no core file: %v", err)
	}
	core, err := aout.DecodeCore(raw)
	if err != nil {
		t.Fatal(err)
	}
	// The data-segment marker must be in the dumped data.
	found := false
	for i := 0; i+4 <= len(core.Data); i += 4 {
		if core.Data[i] == 0 && core.Data[i+1] == 0 && core.Data[i+2] == 0x12 && core.Data[i+3] == 0x34 {
			found = true
		}
	}
	if !found {
		t.Fatalf("marker not found in core data: %v", core.Data)
	}
	if w.m.Metrics.LastCore.Real == 0 {
		t.Fatal("core timing not recorded")
	}
}

const time1s = sim.Second

func TestVMForkAndWait(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/forker", `
start:  sys  fork
        cmpi r0, 0
        jeq  child
        ; parent: wait for child, exit with (status>>8)
        movi r1, 0
        sys  wait
        mov  r0, r2      ; (unused) keep simple: exit 0 on success
        movi r0, 0
        sys  exit
child:  movi r0, 5
        sys  exit
`)
	p := w.spawn(t, "/bin/forker")
	w.run(t)
	if p.ExitStatus != 0 || p.KilledBy != 0 {
		t.Fatalf("status = %d killed = %v", p.ExitStatus, p.KilledBy)
	}
	// Exactly no processes left.
	if n := len(w.m.Procs()); n != 0 {
		t.Fatalf("%d procs left", n)
	}
}

func TestWaitNoChildren(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var e errno.Errno
	w.installHosted(t, "/bin/w", "w", func(sys *Sys, args []string) int {
		_, _, e = sys.Wait()
		return 0
	})
	w.spawn(t, "/bin/w")
	w.run(t)
	if e != errno.ECHILD {
		t.Fatalf("err = %v, want ECHILD", e)
	}
}

func TestPipes(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var got []byte
	w.installHosted(t, "/bin/pipe", "pipe", func(sys *Sys, args []string) int {
		r, wfd, e := sys.Pipe()
		if e != 0 {
			return 1
		}
		sys.Write(wfd, []byte("through the pipe"))
		got, _ = sys.Read(r, 100)
		sys.Close(wfd)
		// Now read EOF.
		if d, e := sys.Read(r, 10); e != 0 || len(d) != 0 {
			return 2
		}
		return 0
	})
	p := w.spawn(t, "/bin/pipe")
	w.run(t)
	if p.ExitStatus != 0 || string(got) != "through the pipe" {
		t.Fatalf("status = %d got = %q", p.ExitStatus, got)
	}
}

func TestPipeBlocksUntilData(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var r, wfd int
	var got []byte
	var readerDone sim.Time
	w.installHosted(t, "/bin/reader", "reader", func(sys *Sys, args []string) int {
		var e errno.Errno
		r, wfd, e = sys.Pipe()
		if e != 0 {
			return 1
		}
		pid, _ := sys.Spawn("/bin/writer", nil, nil)
		_ = pid
		got, _ = sys.Read(r, 100)
		readerDone = sys.Gettime()
		sys.Wait()
		return 0
	})
	w.installHosted(t, "/bin/writer", "writer", func(sys *Sys, args []string) int {
		sys.Sleep(3 * sim.Second)
		sys.Write(wfd, []byte("late"))
		return 0
	})
	w.spawn(t, "/bin/reader")
	w.run(t)
	if string(got) != "late" {
		t.Fatalf("got = %q", got)
	}
	if readerDone < sim.Time(3*sim.Second) {
		t.Fatalf("reader returned too early: %v", readerDone)
	}
}

func TestSocketMarkedInFDTable(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var kind FileKind
	w.installHosted(t, "/bin/s", "s", func(sys *Sys, args []string) int {
		fd, e := sys.Socket()
		if e != 0 {
			return 1
		}
		kind = sys.Proc().FDs[fd].Kind
		return 0
	})
	p := w.spawn(t, "/bin/s")
	w.run(t)
	if p.ExitStatus != 0 || kind != FileSocket {
		t.Fatalf("status = %d kind = %v", p.ExitStatus, kind)
	}
}

func TestExecveISACheck(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true}) // brick is a Sun-2 (ISA1)
	w.install(t, "/bin/isa2prog", `
start:  movi r0, 1
        bswap r0
        movi r0, 0
        sys  exit
`)
	var e errno.Errno
	w.installHosted(t, "/bin/try", "try", func(sys *Sys, args []string) int {
		e = sys.Execve("/bin/isa2prog", nil, nil)
		return 9 // reached only if exec failed
	})
	p := w.spawn(t, "/bin/try")
	w.run(t)
	if p.ExitStatus != 9 || e != errno.ENOEXEC {
		t.Fatalf("status = %d e = %v, want exec refused", p.ExitStatus, e)
	}
}

func TestExecveReplacesHostedWithVM(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/five", `
start:  movi r0, 5
        sys  exit
`)
	w.installHosted(t, "/bin/wrap", "wrap", func(sys *Sys, args []string) int {
		sys.Execve("/bin/five", nil, nil)
		return 1 // unreachable on success
	})
	p := w.spawn(t, "/bin/wrap")
	w.run(t)
	if p.ExitStatus != 5 {
		t.Fatalf("status = %d, want 5 from the VM image", p.ExitStatus)
	}
}

func TestExecArgsOnStack(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	// Program reads first byte of argv block (r1) and exits with it.
	w.install(t, "/bin/argv", `
start:  ldb  r4, r1
        mov  r0, r4
        sys  exit
`)
	var status int
	w.installHosted(t, "/bin/wrap", "wrap", func(sys *Sys, args []string) int {
		pid, e := sys.Spawn("/bin/argv", []string{"Zebra"}, []string{"TERM=sun"})
		if e != 0 {
			return 1
		}
		_ = pid
		_, st, _ := sys.Wait()
		status = st >> 8
		return 0
	})
	w.spawn(t, "/bin/wrap")
	w.run(t)
	if status != 'Z' {
		t.Fatalf("child exit = %q, want 'Z'", rune(status))
	}
}

func TestVMSignalHandlerRuns(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	// Catch SIGUSR1: handler sets r7? No — handler must use memory.
	// Handler stores 1 to the flag, returns; main loop polls the flag.
	w.install(t, "/bin/catcher", `
start:  movi r0, 30        ; SIGUSR1
        movi r1, handler
        sys  signal
loop:   ld   r4, flag
        cmpi r4, 1
        jne  loop
        movi r0, 42
        sys  exit
handler: movi r5, 1
        st   r5, flag
        ret
        .data
flag:   .word 0
`)
	victim := w.spawn(t, "/bin/catcher")
	w.installHosted(t, "/bin/killer", "killer", func(sys *Sys, args []string) int {
		sys.Sleep(sim.Second)
		return int(sys.Kill(victim.PID, SIGUSR1))
	})
	w.spawn(t, "/bin/killer")
	w.run(t)
	if victim.ExitStatus != 42 || victim.KilledBy != 0 {
		t.Fatalf("status = %d killed = %v", victim.ExitStatus, victim.KilledBy)
	}
}

func TestSignalIgnored(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/ign", "ign", func(sys *Sys, args []string) int {
		sys.Signal(SIGTERM, SigAction{Disposition: SigIgnore})
		sys.Sleep(5 * sim.Second)
		return 0
	})
	victim := w.spawn(t, "/bin/ign")
	w.installHosted(t, "/bin/killer", "killer", func(sys *Sys, args []string) int {
		sys.Sleep(sim.Second)
		return int(sys.Kill(victim.PID, SIGTERM))
	})
	w.spawn(t, "/bin/killer")
	w.run(t)
	if victim.KilledBy != 0 || victim.ExitStatus != 0 {
		t.Fatalf("ignored signal killed the process: %v/%d", victim.KilledBy, victim.ExitStatus)
	}
}

func TestSIGKILLCannotBeIgnored(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/stubborn", "stubborn", func(sys *Sys, args []string) int {
		sys.Signal(SIGKILL, SigAction{Disposition: SigIgnore}) // EINVAL, but also unenforceable
		sys.Sleep(100 * sim.Second)
		return 0
	})
	victim := w.spawn(t, "/bin/stubborn")
	w.installHosted(t, "/bin/killer", "killer", func(sys *Sys, args []string) int {
		sys.Sleep(sim.Second)
		return int(sys.Kill(victim.PID, SIGKILL))
	})
	w.spawn(t, "/bin/killer")
	w.run(t)
	if victim.KilledBy != SIGKILL {
		t.Fatalf("killed by %v", victim.KilledBy)
	}
}

func TestTTYReadBlocksAndEchoes(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var got []byte
	w.installHosted(t, "/bin/readline", "readline", func(sys *Sys, args []string) int {
		fd, e := sys.Open("/dev/tty", O_RDWR)
		if e != 0 {
			return 1
		}
		sys.Write(fd, []byte("prompt: "))
		got, _ = sys.Read(fd, 100)
		return 0
	})
	p := w.spawn(t, "/bin/readline")
	w.eng.Go("typist", func(tk *sim.Task) {
		tk.Sleep(2 * sim.Second)
		w.term.Type("typed line\n")
	})
	w.run(t)
	if p.ExitStatus != 0 || string(got) != "typed line\n" {
		t.Fatalf("status = %d got = %q", p.ExitStatus, got)
	}
	if !strings.Contains(w.term.Output(), "prompt: ") {
		t.Fatalf("output = %q", w.term.Output())
	}
}

func TestDevNull(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/null", "null", func(sys *Sys, args []string) int {
		fd, e := sys.Open("/dev/null", O_RDWR)
		if e != 0 {
			return 1
		}
		if n, e := sys.Write(fd, []byte("discard")); e != 0 || n != 7 {
			return 2
		}
		if d, e := sys.Read(fd, 10); e != 0 || len(d) != 0 {
			return 3
		}
		return 0
	})
	p := w.spawn(t, "/bin/null")
	w.run(t)
	if p.ExitStatus != 0 {
		t.Fatalf("status = %d", p.ExitStatus)
	}
}

func TestGttySttyRoundTrip(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/tt", "tt", func(sys *Sys, args []string) int {
		fd, e := sys.Open("/dev/tty", O_RDWR)
		if e != 0 {
			return 1
		}
		fl, e := sys.Gtty(fd)
		if e != 0 {
			return 2
		}
		if e := sys.Stty(fd, fl|tty.Raw); e != 0 {
			return 3
		}
		fl2, _ := sys.Gtty(fd)
		if fl2&tty.Raw == 0 {
			return 4
		}
		// Gtty on a plain file is ENOTTY (how dumpproc detects terminals).
		ffd, _ := sys.Creat("/usr/tmp/plain", 0o644)
		if _, e := sys.Gtty(ffd); e != errno.ENOTTY {
			return 5
		}
		return 0
	})
	p := w.spawn(t, "/bin/tt")
	w.run(t)
	if p.ExitStatus != 0 {
		t.Fatalf("status = %d", p.ExitStatus)
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/burn", `
start:  movi r1, 0
loop:   addi r1, 1
        cmpi r1, 10000
        jlt  loop
        movi r0, 0
        sys  exit
`)
	p := w.spawn(t, "/bin/burn")
	w.run(t)
	// ~30k instructions at 1µs each.
	if p.UTime < 25*sim.Millisecond || p.UTime > 40*sim.Millisecond {
		t.Fatalf("utime = %v", p.UTime)
	}
	if p.STime <= 0 {
		t.Fatalf("stime = %v", p.STime)
	}
}

func TestTwoCPUBoundProcsShareCPU(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/burn", `
start:  movi r1, 0
loop:   addi r1, 1
        cmpi r1, 100000
        jlt  loop
        movi r0, 0
        sys  exit
`)
	p1 := w.spawn(t, "/bin/burn")
	p2 := w.spawn(t, "/bin/burn")
	w.run(t)
	elapsed := sim.Duration(w.eng.Now())
	if elapsed < p1.UTime+p2.UTime {
		t.Fatalf("wall (%v) < total cpu (%v): no contention modeled", elapsed, p1.UTime+p2.UTime)
	}
}

func TestPidSpoofExtension(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true, PidSpoof: true})
	var seenPid, realPid int
	var seenHost, realHost string
	w.installHosted(t, "/bin/who", "who", func(sys *Sys, args []string) int {
		p := sys.Proc()
		p.Migrated = true
		p.OldPID = 4242
		p.OldHost = "schooner"
		seenPid = sys.Getpid()
		realPid = sys.Getrealpid()
		seenHost = sys.Gethostname()
		realHost = sys.Getrealhostname()
		return 0
	})
	p := w.spawn(t, "/bin/who")
	w.run(t)
	if seenPid != 4242 || seenHost != "schooner" {
		t.Fatalf("spoofed identity = %d@%s", seenPid, seenHost)
	}
	if realPid != p.PID || realHost != "brick" {
		t.Fatalf("real identity = %d@%s", realPid, realHost)
	}
}

func TestPSListsProcesses(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/a", "a", func(sys *Sys, args []string) int {
		rows := sys.PS()
		if len(rows) < 1 {
			return 1
		}
		found := false
		for _, r := range rows {
			if r.PID == sys.Getrealpid() && strings.Contains(r.Cmd, "/bin/a") {
				found = true
			}
		}
		if !found {
			return 2
		}
		return 0
	})
	p := w.spawn(t, "/bin/a")
	w.run(t)
	if p.ExitStatus != 0 {
		t.Fatalf("status = %d", p.ExitStatus)
	}
}

func TestVMFaultKillsWithSIGSEGV(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/crash", `
start:  movi r1, 0x00800000  ; unmapped
        ldr  r0, r1
        sys  exit
`)
	p := w.spawn(t, "/bin/crash")
	w.run(t)
	if p.KilledBy != SIGSEGV {
		t.Fatalf("killed by %v", p.KilledBy)
	}
	// SIGSEGV dumps core.
	if _, err := w.m.NS().ReadFile("/home/core"); err != nil {
		t.Fatalf("no core: %v", err)
	}
}

func TestSetreuid(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var e1, e2 errno.Errno
	w.installHosted(t, "/bin/su", "su", func(sys *Sys, args []string) int {
		e1 = sys.Setreuid(0, 0) // not allowed for uid 100
		e2 = sys.Setreuid(-1, 100)
		return 0
	})
	w.spawn(t, "/bin/su")
	w.run(t)
	if e1 != errno.EPERM || e2 != 0 {
		t.Fatalf("e1 = %v e2 = %v", e1, e2)
	}
	// Root can become anyone.
	var e3 errno.Errno
	w.installHosted(t, "/bin/root", "root", func(sys *Sys, args []string) int {
		e3 = sys.Setreuid(100, 100)
		return 0
	})
	w.m.Spawn(SpawnSpec{Path: "/bin/root", Creds: Creds{}, CWD: "/", TTY: w.term})
	w.run(t)
	if e3 != 0 {
		t.Fatalf("root setreuid: %v", e3)
	}
}

func TestOrphanReparenting(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var childPid int
	w.installHosted(t, "/bin/parent", "parent", func(sys *Sys, args []string) int {
		pid, _ := sys.Spawn("/bin/child", nil, nil)
		childPid = pid
		return 0 // exit immediately, orphaning the child
	})
	w.installHosted(t, "/bin/child", "child", func(sys *Sys, args []string) int {
		sys.Sleep(5 * sim.Second)
		return 0
	})
	w.spawn(t, "/bin/parent")
	w.run(t)
	if _, ok := w.m.FindProc(childPid); ok {
		t.Fatal("orphan child not reaped after exit")
	}
}

func TestEMFILEAtNOFILE(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	var e errno.Errno
	var opened int
	w.installHosted(t, "/bin/many", "many", func(sys *Sys, args []string) int {
		sys.Creat("/usr/tmp/f", 0o644) // fd 0
		for i := 0; i < NOFILE+5; i++ {
			_, err := sys.Open("/usr/tmp/f", O_RDONLY)
			if err != 0 {
				e = err
				break
			}
			opened++
		}
		return 0
	})
	w.spawn(t, "/bin/many")
	w.run(t)
	if e != errno.EMFILE {
		t.Fatalf("err = %v, want EMFILE", e)
	}
	if opened != NOFILE-1 {
		t.Fatalf("opened = %d, want %d", opened, NOFILE-1)
	}
}
