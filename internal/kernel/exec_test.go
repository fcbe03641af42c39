package kernel

import (
	"bytes"
	"testing"

	"procmig/internal/vm"
	"procmig/internal/vm/asm"
)

// TestExecveStoreLeavesFileUnchanged: execve hands the buffer ReadAt
// returned straight to the VM, so the file's bytes stay unchanged only
// because that buffer is a private copy. A data store that reaches the file
// would corrupt every later exec of it (a restart spool, a checkpoint).
func TestExecveStoreLeavesFileUnchanged(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.install(t, "/bin/poke", `
start:  movi r4, 77
        st   r4, cell
        ld   r0, cell
        sys  exit
        .data
cell:   .word 5
`)
	before, err := w.m.NS().ReadFile("/bin/poke")
	if err != nil {
		t.Fatal(err)
	}
	before = bytes.Clone(before)
	p := w.spawn(t, "/bin/poke")
	w.run(t)
	if p.ExitStatus != 77 {
		t.Fatalf("status = %d, want 77: the store never reached the data segment", p.ExitStatus)
	}
	after, err := w.m.NS().ReadFile("/bin/poke")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a VM store into the data segment changed the executable file")
	}
}

// TestRestProcExecAllocatesStackOnce: the image execve installs for
// rest_proc costs two allocations, the CPU and its stack at the dumped
// size. Text and data are the decoded read buffer's, and the zeroed stack
// is installed as allocated; rest_proc copies the dumped contents into it.
func TestRestProcExecAllocatesStackOnce(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	exe := asm.MustAssemble(`
start:  sys  exit
        .data
        .space 4096
`)
	p := &Proc{M: w.m}
	p.SetRestProcMode(true, 1000)
	cpu := p.newImage(exe, nil, nil)
	if len(cpu.Stack) != 1000 || cpu.SP() != vm.StackTop-1000 {
		t.Fatalf("stack %d bytes, SP %#x: want the 1000 rest_proc asked for", len(cpu.Stack), cpu.SP())
	}
	if &cpu.Data[0] != &exe.Data[0] || &cpu.Text[0] != &exe.Text[0] {
		t.Fatal("execve copied the decoded text or data")
	}
	if n := testing.AllocsPerRun(100, func() { p.newImage(exe, nil, nil) }); n != 2 {
		t.Fatalf("rest_proc's exec allocates %v objects, want 2 (the CPU and its stack)", n)
	}
}
