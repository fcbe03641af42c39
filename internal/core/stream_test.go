package core

import (
	"bytes"
	"testing"

	"procmig/internal/aout"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// asmSink feeds stream records straight into an ImageAssembler.
type asmSink struct {
	asm *ImageAssembler
	err error
}

func (s *asmSink) Chunk(_ *sim.Task, rec []byte) {
	if s.err == nil {
		s.err = s.asm.Apply(rec)
	}
}

func (s *asmSink) Done(_ *sim.Task) []byte {
	if s.err != nil {
		return EncodeStreamStatus(-1)
	}
	return EncodeStreamStatus(0)
}

func (s *asmSink) Sync(_ *sim.Task, req []byte) []byte {
	return s.asm.SyncReply(req)
}

func TestStreamHelloRoundTrip(t *testing.T) {
	h := &StreamHello{PID: 42, ISA: vm.ISA2, Entry: 0x1c, TextLen: 5000, DataLen: 3000, Source: "alpha"}
	got, err := DecodeStreamHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Fatalf("got %+v, want %+v", got, h)
	}
	if _, err := DecodeStreamHello([]byte{0, 1, 2}); err == nil {
		t.Fatal("bad magic accepted")
	}
	raw := h.Encode()
	for n := 0; n < len(raw); n++ {
		if _, err := DecodeStreamHello(raw[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

func TestStreamStatusRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, -1, 255} {
		if got := DecodeStreamStatus(EncodeStreamStatus(v)); got != v {
			t.Fatalf("status %d round-tripped to %d", v, got)
		}
	}
	if DecodeStreamStatus(nil) != -1 || DecodeStreamStatus([]byte{1, 2, 3}) != -1 {
		t.Fatal("malformed status not a failure")
	}
}

// TestStreamImageRoundTrip drives SendRound over a real netsim stream into
// an ImageAssembler and checks the spooled files reproduce the image,
// including a page dirtied between rounds.
func TestStreamImageRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	src := net.AddHost("src")
	net.AddHost("dst")

	text := make([]byte, 5000) // two text chunks
	for i := range text {
		text[i] = byte(i)
	}
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	c := vm.New(text, append([]byte(nil), data...), vm.MinISA(text))
	stackImg := make([]byte, 600)
	for i := range stackImg {
		stackImg[i] = byte(i * 3)
	}
	c.SetStackImage(stackImg)
	c.SetDirtyTracking(true)

	var sink *asmSink
	dstHost, _ := net.Host("dst")
	dstHost.ListenStream(9, func(_ *sim.Task, _ string, hello []byte) (netsim.StreamSink, error) {
		asm, err := NewImageAssembler(hello)
		if err != nil {
			return nil, err
		}
		sink = &asmSink{asm: asm}
		return sink, nil
	})

	hello := &StreamHello{
		PID: 7, ISA: c.ISA, Entry: 0,
		TextLen: uint32(len(text)), DataLen: uint32(len(data)), Source: "src",
	}
	st, err := src.OpenStream(nil, "dst", 9, hello.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sess := &StreamSession{Stream: st}
	costs := kernel.DefaultCosts()
	charge := func(sim.Duration) {}

	if err := sess.SendRound(nil, c, costs, charge); err != nil {
		t.Fatal(err)
	}
	// Mutate a data word and part of the stack between rounds.
	dataBase := vm.DataBase(len(text))
	c.WriteU32(dataBase+100, 0xdeadbeef)
	c.WriteU32(vm.StackTop-8, 0x01020304)
	if err := sess.SendRound(nil, c, costs, charge); err != nil {
		t.Fatal(err)
	}
	if sess.Rounds != 2 || !sess.fullSent || !sess.textSent {
		t.Fatalf("session state = %+v", sess)
	}

	sf := &StackFile{
		Creds:  kernel.Creds{UID: 7, GID: 8, EUID: 7, EGID: 8},
		Regs:   c.Snapshot(),
		OldPID: 7,
	}
	ff := &FilesFile{Host: "src", CWD: "/n/src/home"}
	meta := encodeMetaRec(len(c.StackImage()), ff.Encode(), sf.Encode())
	if err := st.Send(nil, meta); err != nil {
		t.Fatal(err)
	}
	// Before the commit record arrives the assembler must refuse to spool.
	if _, _, _, err := sink.asm.Spool(); err != ErrNotCommitted {
		t.Fatalf("pre-commit spool err = %v, want ErrNotCommitted", err)
	}
	commit := &CommitRecord{
		PID: 7, TextLen: uint32(len(text)),
		PageCount: uint32(len(sess.shipped)),
		StackLen:  uint32(len(c.StackImage())),
	}
	if err := st.Send(nil, commit.Encode()); err != nil {
		t.Fatal(err)
	}
	resp, err := st.Close(nil)
	if err != nil {
		t.Fatal(err)
	}
	if DecodeStreamStatus(resp) != 0 {
		t.Fatalf("close status = %d", DecodeStreamStatus(resp))
	}
	if sink.err != nil {
		t.Fatal(sink.err)
	}

	aoutRaw, filesRaw, stackRaw, err := sink.asm.Spool()
	if err != nil {
		t.Fatal(err)
	}
	exe, err := aout.Decode(aoutRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exe.Text, text) {
		t.Fatal("text corrupted in transit")
	}
	// The live data (with the post-round-1 write) must win.
	want := append([]byte(nil), data...)
	c2 := vm.New(text, want, c.ISA)
	c2.WriteU32(dataBase+100, 0xdeadbeef)
	if !bytes.Equal(exe.Data, want) {
		t.Fatal("data delta not applied")
	}
	gotSF, err := DecodeStack(stackRaw)
	if err != nil {
		t.Fatal(err)
	}
	if gotSF.Creds != sf.Creds || gotSF.OldPID != 7 {
		t.Fatalf("stack file metadata = %+v", gotSF)
	}
	wantStack := c.StackImage()
	if !bytes.Equal(gotSF.Stack, wantStack) {
		t.Fatal("stack contents corrupted in transit")
	}
	gotFF, err := DecodeFiles(filesRaw)
	if err != nil {
		t.Fatal(err)
	}
	if gotFF.Host != "src" || gotFF.CWD != "/n/src/home" {
		t.Fatalf("files file = %+v", gotFF)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblerRejectsBadInput(t *testing.T) {
	hello := (&StreamHello{PID: 1, TextLen: 100, DataLen: 100}).Encode()
	asm, err := NewImageAssembler(hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Apply(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	for name, rec := range map[string][]byte{
		"unknown type": {99, 0, 0},
		// The retired single speculative ref (type 8, page 0, a hash).
		"single store ref": append([]byte{8, 0, 0, 0, 0}, make([]byte, 8)...),
	} {
		if err := asm.Apply(rec); err != ErrBadMagic {
			t.Fatalf("%s: err %v, want ErrBadMagic", name, err)
		}
	}
	// Text chunk overflowing the declared text length.
	if err := asm.Apply(encodeTextRec(90, make([]byte, 20))); err == nil {
		t.Fatal("overflowing text chunk accepted")
	}
	// Page record with a short payload claims PageSize bytes.
	rec := encodePageRec(0, make([]byte, vm.PageSize))
	for n := 1; n < len(rec); n += 97 {
		if err := asm.Apply(rec[:n]); err == nil {
			t.Fatalf("truncated page record (%d bytes) accepted", n)
		}
	}
	// Spool before any meta record must fail, not panic.
	if _, _, _, err := asm.Spool(); err == nil {
		t.Fatal("spool without meta accepted")
	}
	// With meta but incomplete text, still an error.
	meta := encodeMetaRec(0, (&FilesFile{}).Encode(), (&StackFile{}).Encode())
	if err := asm.Apply(meta); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := asm.Spool(); err == nil {
		t.Fatal("spool with missing text accepted")
	}
	// Truncated commit records must be rejected, and a commit that
	// disagrees with the hello must not open the spool gate.
	crec := (&CommitRecord{PID: 1, TextLen: 100}).Encode()
	for n := 1; n < len(crec); n++ {
		if err := asm.Apply(crec[:n]); err == nil {
			t.Fatalf("truncated commit record (%d bytes) accepted", n)
		}
	}
	if err := asm.Apply((&CommitRecord{PID: 2, TextLen: 100}).Encode()); err != nil {
		t.Fatal(err)
	}
	if asm.Committed() {
		t.Fatal("commit record for the wrong PID accepted")
	}
}
