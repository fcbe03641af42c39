package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// committedImage assembles and commits a dataLen-byte image of pid 3
// whose every data page is numbered.
func committedImage(t *testing.T, dataLen uint32) *CommittedImage {
	t.Helper()
	asm, err := NewImageAssembler((&StreamHello{PID: 3, DataLen: dataLen, Txn: 1}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for pg := uint32(0); pg < dataLen/vm.PageSize; pg++ {
		page := make([]byte, vm.PageSize)
		binary.BigEndian.PutUint32(page, pg+1)
		recs = append(recs, appendPageRec(nil, pg, page))
	}
	recs = append(recs,
		encodeMetaRec(0, (&FilesFile{Host: "src", CWD: "/home"}).Encode(), (&StackFile{OldPID: 3}).Encode()),
		(&CommitRecord{Txn: 1, PID: 3, PageCount: dataLen / vm.PageSize}).Encode())
	for _, rec := range recs {
		if err := asm.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	img, err := asm.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// spoolMachine boots a bare machine with a /usr/tmp to spool into.
func spoolMachine(t *testing.T) *kernel.Machine {
	t.Helper()
	m := kernel.NewMachine(sim.NewEngine(), "buddy", vm.ISA1, kernel.Config{TrackNames: true})
	if err := m.NS().MkdirAll(DumpDir, 0o777, 0, 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSharedFileRespool: a guardian spools the same committed image at
// every recovery attempt, and the spool files keep the image's buffers
// (the files file is the one the image holds). A write into the first
// spool's files must not reach the image: the second spool writes the
// first one's original bytes.
func TestSharedFileRespool(t *testing.T) {
	img := committedImage(t, 4*vm.PageSize)
	m := spoolMachine(t)
	ns := m.NS()
	aoutPath, filesPath, stackPath := DumpPaths("", 3)
	paths := []string{aoutPath, filesPath, stackPath}
	spool := func() [][]byte {
		aoutRaw, filesRaw, stackRaw := img.Spool()
		if _, err := SpoolImage(nil, m, 3, aoutRaw, filesRaw, stackRaw); err != nil {
			t.Fatal(err)
		}
		var files [][]byte
		for _, path := range paths {
			raw, err := ns.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, raw)
		}
		return files
	}
	first := spool()
	scribble := []byte("scribble")
	for _, path := range paths {
		pl, err := ns.Resolve(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.FS.WriteAt(pl.Node, 0, scribble); err != nil {
			t.Fatal(err)
		}
		if raw, _ := ns.ReadFile(path); !bytes.HasPrefix(raw, scribble) {
			t.Fatalf("%s: the write did not land", path)
		}
	}
	second := spool()
	for i, path := range paths {
		if !bytes.Equal(second[i], first[i]) {
			t.Errorf("%s: the second spool differs from the first spool's original bytes", path)
		}
	}
}

// TestSpoolKeepsImage: SpoolImage hands the image's buffers to the disk
// instead of copying them, so a spool allocates under an eighth of its
// a.out: names and inodes, not bytes.
func TestSpoolKeepsImage(t *testing.T) {
	img := committedImage(t, 256<<10)
	m := spoolMachine(t)
	aoutRaw, filesRaw, stackRaw := img.Spool()
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		sp, err := SpoolImage(nil, m, 3, aoutRaw, filesRaw, stackRaw)
		if err != nil {
			t.Fatal(err)
		}
		sp.remove()
	}
	runtime.ReadMemStats(&after)
	perSpool := int((after.TotalAlloc - before.TotalAlloc) / rounds)
	if perSpool >= len(aoutRaw)/8 {
		t.Fatalf("a spool allocates %d B, want < %d (1/8 of the %d B a.out)",
			perSpool, len(aoutRaw)/8, len(aoutRaw))
	}
	t.Logf("spooling a %d KiB a.out allocates %d B", len(aoutRaw)>>10, perSpool)
}
