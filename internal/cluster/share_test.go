package cluster_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/kernel"
	"procmig/internal/vm/asm"
)

// quickExitSrc exits at once; its data segment pads the image.
const quickExitSrc = `
start:  movi r0, 0
        sys  exit
        .data
pad:    .space 4096
`

// TestSharedFileAcrossMachines: one a.out buffer written to two machines,
// as InstallVM writes it, is kept by both disks until a write(2) into one
// machine's copy. That write copies it first, so the other machine still
// runs the original and the installer's buffer is unchanged. Two clusters
// share the buffer on parallel goroutines, so under -race a write into it
// shows up as a race.
func TestSharedFileAcrossMachines(t *testing.T) {
	exe, err := asm.Assemble(quickExitSrc)
	if err != nil {
		t.Fatal(err)
	}
	raw := exe.Encode()
	orig := bytes.Clone(raw)
	const path = "/bin/quick"
	patch := []byte("patched")
	install := func() error {
		c, err := cluster.NewSimple("a", "b")
		if err != nil {
			return err
		}
		for _, name := range c.Names() {
			if err := c.Machine(name).NS().WriteFile(path, raw, 0o755, 0, 0); err != nil {
				return err
			}
		}
		if err := c.InstallHosted("patch", func(sys *kernel.Sys, args []string) int {
			fd, e := sys.Open(args[1], kernel.O_WRONLY)
			if e != 0 {
				return 1
			}
			if _, e := sys.Write(fd, patch); e != 0 {
				return 2
			}
			return 0
		}); err != nil {
			return err
		}
		w, err := c.Spawn("a", nil, kernel.Creds{}, "/bin/patch", path)
		if err != nil {
			return err
		}
		q, err := c.Spawn("b", nil, cluster.DefaultUser, path)
		if err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		if w.ExitStatus != 0 || q.ExitStatus != 0 {
			return fmt.Errorf("patch exited %d, %s exited %d", w.ExitStatus, path, q.ExitStatus)
		}
		if got, _ := c.Machine("a").NS().ReadFile(path); !bytes.Equal(got, append(bytes.Clone(patch), orig[len(patch):]...)) {
			return fmt.Errorf("a's %s does not hold the write", path)
		}
		if got, _ := c.Machine("b").NS().ReadFile(path); !bytes.Equal(got, orig) {
			return fmt.Errorf("b's %s changed with a's", path)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = install()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("cluster %d: %v", i, err)
		}
	}
	if !bytes.Equal(raw, orig) {
		t.Error("the installer's buffer changed")
	}
}

// TestInstallVMSharesImage: InstallVM writes one encoded a.out to every
// machine and each disk keeps that buffer, so installing a 256 KiB program
// on 16 machines grows the live heap by under two images, where a copy
// per machine grows it by sixteen.
func TestInstallVMSharesImage(t *testing.T) {
	const src = "start: jmp start\n .data\nbuf: .space 262144\n"
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(exe.Encode()))
	var names []string
	for i := 0; i < 16; i++ {
		names = append(names, fmt.Sprintf("m%02d", i))
	}
	c := boot(t, names...)
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	if err := c.InstallVM("/bin/big", src); err != nil {
		t.Fatal(err)
	}
	grown := liveHeap() - before
	runtime.KeepAlive(c)
	if grown >= 2*size {
		t.Fatalf("installing a %d B image on %d machines grew the live heap by %d B, want < %d",
			size, len(names), grown, 2*size)
	}
	t.Logf("installing a %d B image on %d machines grew the live heap by %d B", size, len(names), grown)
}
