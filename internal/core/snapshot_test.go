package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// Operation frames of a logged checkpoint stream, the input format of
// FuzzApply: op byte, u32 payload length, payload.
const (
	opApply  = 'r' // payload is one stream record
	opSync   = 's' // payload is a Stream.Sync query (a store-NACK poll)
	opCommit = 'c' // no payload: the stream closed; commit a snapshot
	opHello  = 'g' // payload is a stream hello: a new generation's assembler
)

func appendFrame(log []byte, op byte, payload []byte) []byte {
	log = append(log, op)
	log = binary.BigEndian.AppendUint32(log, uint32(len(payload)))
	return append(log, payload...)
}

// spooled is one commit's three dump files.
type spooled struct{ aout, files, stack []byte }

func (s spooled) equal(o spooled) bool {
	return bytes.Equal(s.aout, o.aout) && bytes.Equal(s.files, o.files) && bytes.Equal(s.stack, o.stack)
}

// ckptBuddy is a checkpoint destination shaped like guardd's buddy: every
// checkpoint stream of a generation lands in one long-lived assembler, and
// each close commits a snapshot beside an eager spool of the same commit.
// Every operation is logged in the FuzzApply frame format.
type ckptBuddy struct {
	asm   *ImageAssembler
	store *PageStore
	log   []byte
	snaps []*CommittedImage
	eager []spooled
	err   error
}

func (b *ckptBuddy) Chunk(_ *sim.Task, rec []byte) {
	b.log = appendFrame(b.log, opApply, rec)
	if b.err == nil {
		b.err = b.asm.Apply(rec)
	}
}

func (b *ckptBuddy) Sync(_ *sim.Task, req []byte) []byte {
	b.log = appendFrame(b.log, opSync, req)
	return b.asm.SyncReply(req)
}

func (b *ckptBuddy) Done(_ *sim.Task) []byte {
	b.log = appendFrame(b.log, opCommit, nil)
	if b.err != nil {
		return EncodeStreamStatus(-1)
	}
	aoutRaw, filesRaw, stackRaw, err := b.asm.Spool()
	if err != nil {
		return EncodeStreamStatus(-1)
	}
	img, err := b.asm.Commit()
	if err != nil {
		return EncodeStreamStatus(-1)
	}
	b.snaps = append(b.snaps, img)
	b.eager = append(b.eager, spooled{aoutRaw, filesRaw, stackRaw})
	return EncodeStreamStatus(0)
}

func (b *ckptBuddy) Abort(_ *sim.Task) {}

// ckptHarness checkpoints one VM image to a ckptBuddy over a real netsim
// stream, the way guardd does: one Checkpoint-mode session per generation,
// a fresh stream per checkpoint.
type ckptHarness struct {
	t     testing.TB
	src   *netsim.Host
	cpu   *vm.CPU
	buddy *ckptBuddy
	sess  *StreamSession
	hello []byte
}

// newCkptHarness builds an image whose pages cover every wire encoding:
// LCG noise (raw), a repeating pattern (LZ), zeros, plus text and stack.
func newCkptHarness(t testing.TB) *ckptHarness {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	src := net.AddHost("src")
	net.AddHost("dst")
	// Kept small: the logged streams seed FuzzApply, and the fuzzer
	// minimizes whole inputs.
	text := make([]byte, vm.PageSize)
	for i := range text {
		text[i] = byte(i * 7)
	}
	data := make([]byte, 6*vm.PageSize) // two pages each of noise, pattern, zeros
	x := uint32(0x9e3779b9)
	for i := 0; i < 2*vm.PageSize; i++ {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	for i := 2 * vm.PageSize; i < 4*vm.PageSize; i++ {
		data[i] = byte(i >> 5)
	}
	cpu := vm.New(text, data, vm.MinISA(text))
	stack := make([]byte, 200)
	for i := range stack {
		stack[i] = byte(i * 5)
	}
	cpu.SetStackImage(stack)
	cpu.SetDirtyTracking(true)
	h := &ckptHarness{
		t: t, src: src, cpu: cpu,
		buddy: &ckptBuddy{store: NewPageStore(DefaultStoreBudget)},
	}
	dst, _ := net.Host("dst")
	if err := dst.ListenStream(9, func(_ *sim.Task, _ string, hello []byte) (netsim.StreamSink, error) {
		if h.buddy.asm == nil {
			asm, err := NewImageAssembler(hello)
			if err != nil {
				return nil, err
			}
			asm.SetStore(h.buddy.store)
			h.buddy.asm = asm
			h.buddy.log = appendFrame(h.buddy.log, opHello, hello)
		}
		h.buddy.err = nil
		return h.buddy, nil
	}); err != nil {
		t.Fatal(err)
	}
	h.newGeneration(nil)
	return h
}

// newGeneration starts a fresh source session and makes the buddy discard
// its assembler on the next hello. remote is the store summary the source
// trusts (nil: no speculative refs).
func (h *ckptHarness) newGeneration(remote *StoreSummary) {
	h.buddy.asm = nil
	h.sess = &StreamSession{Txn: 0x5eed, Checkpoint: true, Wire: WireElideLZ,
		Store: NewPageStore(DefaultStoreBudget), Remote: remote}
	h.hello = (&StreamHello{
		PID: 7, ISA: h.cpu.ISA, TextLen: uint32(len(h.cpu.Text)),
		DataLen: uint32(len(h.cpu.Data)), Txn: h.sess.Txn, Source: "src",
	}).Encode()
}

// checkpoint ships one (delta) checkpoint and requires it to commit.
func (h *ckptHarness) checkpoint() {
	h.t.Helper()
	st, err := h.src.OpenStream(nil, "dst", 9, h.hello)
	if err != nil {
		h.t.Fatal(err)
	}
	h.sess.Stream = st
	costs := kernel.DefaultCosts()
	charge := func(sim.Duration) {}
	if err := h.sess.SendRound(nil, h.cpu, costs, charge); err != nil {
		h.t.Fatal(err)
	}
	n := len(h.buddy.snaps)
	if status, err := h.sess.CloseSynthetic(nil, h.cpu, 7, costs, charge); err != nil || status != 0 {
		h.t.Fatalf("checkpoint: status %d, err %v (buddy err %v)", status, err, h.buddy.err)
	}
	if len(h.buddy.snaps) != n+1 {
		h.t.Fatal("checkpoint closed without a committed snapshot")
	}
}

// dirty rewrites a few data pages (noise, pattern and zero ones) and the
// stack, so the next checkpoint is a real delta.
func (h *ckptHarness) dirty(round uint32) {
	base := vm.DataBase(len(h.cpu.Text))
	for _, pg := range []uint32{0, 2} {
		h.cpu.WriteU32(base+pg*vm.PageSize+4*round, 0xc0de0000|round)
	}
	h.cpu.WriteU32(base+4*vm.PageSize, 0) // zero page rewritten with zeros
	h.cpu.WriteU32(vm.StackTop-16, round)
}

// requireSnapshotsIntact re-spools every snapshot taken so far and
// compares it with the eager spool taken at the same commit.
func (h *ckptHarness) requireSnapshotsIntact(when string) {
	h.t.Helper()
	for k, img := range h.buddy.snaps {
		a, f, s := img.Spool()
		if !(spooled{a, f, s}).equal(h.buddy.eager[k]) {
			h.t.Fatalf("%s: snapshot %d no longer spools to the files committed with it", when, k)
		}
	}
}

// TestGuardSnapshotSurvivesLaterDeltas: a committed snapshot stays
// byte-identical to the eager spool of its commit through a later delta
// that commits and a torn delta — a page record landing on a shared page,
// then an LZ frame that decodes into a shared page and fails its checksum,
// then no commit. A text record after the commit must not reach the
// snapshot either.
func TestGuardSnapshotSurvivesLaterDeltas(t *testing.T) {
	h := newCkptHarness(t)
	h.checkpoint() // k = 0: full image
	h.dirty(1)
	h.checkpoint() // k = 1: delta that commits
	h.requireSnapshotsIntact("after a committed delta")

	asm, snap := h.buddy.asm, h.buddy.snaps[1]
	for pg, p := range asm.pages {
		if &p[0] != &snap.pages[pg][0] {
			t.Fatalf("page %d not shared right after the commit", pg)
		}
	}

	// The torn delta.
	noisy := vm.DataBase(len(h.cpu.Text))>>vm.PageShift + 1
	forged := bytes.Repeat([]byte{0xa5}, vm.PageSize)
	if err := asm.Apply(appendPageRec(nil, noisy, forged)); err != nil {
		t.Fatal(err)
	}
	lzPage := noisy + 2
	frame := AppendLZ(nil, bytes.Repeat([]byte{0x5a}, vm.PageSize))
	frame[5] ^= 0xff // checksum: the body decodes in full, then fails
	if err := asm.Apply(appendPageLZRec(nil, lzPage, frame)); err == nil {
		t.Fatal("corrupt LZ frame accepted")
	}
	if err := asm.Apply(appendTextRec(nil, 0, []byte("overwritten text"))); err != nil {
		t.Fatal(err)
	}
	for _, pg := range []uint32{noisy, lzPage} {
		if bytes.Equal(asm.pages[pg], snap.pages[pg]) {
			t.Fatalf("torn write to page %d never landed; the test proves nothing", pg)
		}
		if &asm.pages[pg][0] == &snap.pages[pg][0] {
			t.Fatalf("page %d written in place while a snapshot shares it", pg)
		}
	}
	h.requireSnapshotsIntact("after a torn delta")
	if a, _, _ := snap.Spool(); bytes.Contains(a, forged[:64]) {
		t.Fatal("torn page reached the committed a.out")
	}
}

// TestGuardCommitAllocatesDelta: committing one delta checkpoint of a
// 256 KiB image allocates less than an eighth of the image — the map and
// the delta's pages, not a rebuilt a.out.
func TestGuardCommitAllocatesDelta(t *testing.T) {
	const dataLen = 256 << 10
	hello := (&StreamHello{PID: 3, DataLen: dataLen, Txn: 1}).Encode()
	asm, err := NewImageAssembler(hello)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, vm.PageSize)
	for pg := uint32(0); pg < dataLen/vm.PageSize; pg++ {
		binary.BigEndian.PutUint32(page, pg)
		if err := asm.Apply(appendPageRec(nil, pg, page)); err != nil {
			t.Fatal(err)
		}
	}
	meta := encodeMetaRec(0, (&FilesFile{}).Encode(), (&StackFile{OldPID: 3}).Encode())
	commit := (&CommitRecord{Txn: 1, PID: 3, PageCount: dataLen / vm.PageSize}).Encode()
	delta := [][]byte{nil, meta, commit}
	apply := func(recs [][]byte) {
		for _, rec := range recs {
			if err := asm.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(delta[1:])
	if _, err := asm.Commit(); err != nil {
		t.Fatal(err)
	}

	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		binary.BigEndian.PutUint32(page[8:], uint32(i))
		delta[0] = appendPageRec(delta[0][:0], uint32(i*7), page)
		apply(delta)
		if _, err := asm.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCommit := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perCommit >= dataLen/8 {
		t.Fatalf("a delta commit allocates %d B, want < %d (1/8 of the %d B image)",
			perCommit, dataLen/8, dataLen)
	}
	t.Logf("delta commit of a %d KiB image allocates %d B", dataLen>>10, perCommit)
}

// TestAssemblerRejectsOutOfRangeGeometry: the hello, the page numbers and
// the stack length are untrusted sizes; each is bounded by the address
// space before the assembler allocates or indexes anything by it.
func TestAssemblerRejectsOutOfRangeGeometry(t *testing.T) {
	for _, h := range []StreamHello{
		{PID: 1, TextLen: 0xfffffff0},
		{PID: 1, DataLen: vm.StackTop + 1},
		{PID: 1, TextLen: vm.StackTop / 2, DataLen: vm.StackTop/2 + 1},
		{PID: 1, TextLen: 0xffffffff, DataLen: 2}, // wraps in 32 bits
	} {
		if _, err := NewImageAssembler(h.Encode()); err != ErrBadGeometry {
			t.Errorf("hello text %#x data %#x: err %v, want ErrBadGeometry", h.TextLen, h.DataLen, err)
		}
	}
	if _, err := NewImageAssembler((&StreamHello{PID: 1, TextLen: vm.StackTop / 2, DataLen: vm.StackTop / 2}).Encode()); err != nil {
		t.Fatalf("hello filling the address space exactly rejected: %v", err)
	}

	asm, err := NewImageAssembler((&StreamHello{PID: 1, DataLen: vm.PageSize}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, vm.PageSize)
	const pg = vm.NumPages
	batch := binary.BigEndian.AppendUint32([]byte{RecPageStoreRefBatch}, 1)
	batch = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(batch, pg), zeroPageHash)
	for name, rec := range map[string][]byte{
		"page":         appendPageRec(nil, pg, page),
		"zero page":    appendPageZeroRec(nil, pg),
		"LZ page":      appendPageLZRec(nil, pg, AppendLZ(nil, page)),
		"store ref":    binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32([]byte{RecPageStoreRefBatch, 0, 0, 0, 1}, 0xffffffff), zeroPageHash),
		"store batch":  batch,
		"max page num": appendPageZeroRec(nil, 0xffffffff),
	} {
		if err := asm.Apply(rec); err != ErrBadGeometry {
			t.Errorf("%s record past the address space: err %v, want ErrBadGeometry", name, err)
		}
	}
	if len(asm.pages) != 0 || len(asm.specMiss) != 0 {
		t.Fatalf("out-of-range records grew the assembler: %d pages, %d misses", len(asm.pages), len(asm.specMiss))
	}
	if err := asm.Apply(appendPageZeroRec(nil, vm.NumPages-1)); err != nil {
		t.Fatalf("highest page rejected: %v", err)
	}

	sf := (&StackFile{}).Encode()
	if err := asm.Apply(encodeMetaRec(vm.StackTop+1, nil, sf)); err != ErrBadGeometry {
		t.Fatalf("stack longer than the address space: err %v, want ErrBadGeometry", err)
	}
	if asm.metaSeen || asm.stackLen != 0 {
		t.Fatal("rejected meta record was half applied")
	}
	if err := asm.Apply(encodeMetaRec(vm.StackTop, nil, sf)); err != nil {
		t.Fatalf("stack filling the address space rejected: %v", err)
	}
}
