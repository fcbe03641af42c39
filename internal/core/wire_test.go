package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// wireTestAsm builds an assembler for a small synthetic geometry.
func wireTestAsm(t *testing.T) *ImageAssembler {
	t.Helper()
	hello := (&StreamHello{PID: 1, TextLen: 0, DataLen: 4 * vm.PageSize}).Encode()
	asm, err := NewImageAssembler(hello)
	if err != nil {
		t.Fatal(err)
	}
	return asm
}

// TestWireRecordRoundTrip pushes each page encoding through the assembler
// and checks the stored page contents.
func TestWireRecordRoundTrip(t *testing.T) {
	asm := wireTestAsm(t)

	page := make([]byte, vm.PageSize)
	for i := range page {
		page[i] = byte(i >> 3)
	}

	// LZ page: decodes to the same bytes.
	if err := asm.Apply(appendPageLZRec(nil, 6, AppendLZ(nil, page))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asm.pages.get(6), page) {
		t.Fatal("LZ page decoded wrong")
	}

	// Zero page overwriting a dirty one: must scrub it back to zeros.
	if err := asm.Apply(appendPageRec(nil, 7, page)); err != nil {
		t.Fatal(err)
	}
	if err := asm.Apply(appendPageZeroRec(nil, 7)); err != nil {
		t.Fatal(err)
	}
	if !vm.IsZeroPage(asm.pages.get(7)) {
		t.Fatal("zero record did not scrub the page")
	}

	// Truncations of every efficient encoding must be rejected.
	for _, rec := range [][]byte{
		appendPageZeroRec(nil, 7),
		appendPageLZRec(nil, 6, AppendLZ(nil, page)),
	} {
		for n := 1; n < len(rec); n += 3 {
			if err := asm.Apply(rec[:n]); err == nil {
				t.Fatalf("truncated record type %d (%d bytes) accepted", rec[0], n)
			}
		}
	}
	// An LZ record whose frame is corrupt must fail loudly.
	bad := appendPageLZRec(nil, 6, AppendLZ(nil, page))
	bad[len(bad)-1] ^= 0x20
	if err := asm.Apply(bad); err == nil {
		t.Fatal("corrupt LZ frame accepted")
	}
}

// TestRetiredPageRefRejected: record type 6 once re-sent a page the
// destination already held. Such a page is now not sent at all, so the
// type is retired and must be rejected as unknown — not ignored, which
// would let a stale sender's page silently keep whatever bytes were there.
func TestRetiredPageRefRejected(t *testing.T) {
	asm := wireTestAsm(t)
	page := make([]byte, vm.PageSize)
	page[17] = 0xAA
	if err := asm.Apply(appendPageRec(nil, 3, page)); err != nil {
		t.Fatal(err)
	}
	// u32 page number, u64 hash: the retired type-6 layout, hash matching.
	rec := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32([]byte{6}, 3), vm.HashPage(page))
	if err := asm.Apply(rec); err != ErrBadMagic {
		t.Fatalf("type 6 record: err = %v, want ErrBadMagic", err)
	}
}

// wireTransfer runs one synthetic two-round transfer under the given mode
// and returns the spooled dump files. The image mixes zero pages,
// compressible pages and pages re-dirtied without changing (the case that
// ships nothing), so every encoding is exercised when mode allows it. Both
// rounds and the metadata run under faults f on an engine seeded with
// seed; the close, which is not retried, runs on a clean wire.
func wireTransfer(t *testing.T, mode WireMode, seed uint64, f netsim.FaultSpec) (aoutRaw, filesRaw, stackRaw []byte, sess *StreamSession) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Seed(seed)
	net := netsim.New(eng, 0, 0)
	src := net.AddHost("src")
	net.AddHost("dst")

	text := make([]byte, 2000)
	for i := range text {
		text[i] = byte(i * 13)
	}
	data := make([]byte, 8*vm.PageSize)
	for i := 0; i < 4*vm.PageSize; i++ {
		data[i] = byte(i >> 4) // compressible half; the rest stays zero
	}
	c := vm.New(text, append([]byte(nil), data...), vm.MinISA(text))
	stackImg := make([]byte, 300)
	for i := range stackImg {
		stackImg[i] = byte(i * 11)
	}
	c.SetStackImage(stackImg)
	c.SetDirtyTracking(true)

	var sink *asmSink
	dstHost, _ := net.Host("dst")
	if err := dstHost.ListenStream(9, func(_ *sim.Task, _ string, hello []byte) (netsim.StreamSink, error) {
		asm, err := NewImageAssembler(hello)
		if err != nil {
			return nil, err
		}
		sink = &asmSink{asm: asm}
		return sink, nil
	}); err != nil {
		t.Fatal(err)
	}
	hello := &StreamHello{
		PID: 7, ISA: c.ISA,
		TextLen: uint32(len(text)), DataLen: uint32(len(data)), Source: "src",
	}
	st, err := src.OpenStream(nil, "dst", 9, hello.Encode())
	if err != nil {
		t.Fatal(err)
	}
	net.FaultPort(9, f)
	sess = &StreamSession{Stream: st, Wire: mode, Obs: NewStreamObs(obs.NewRegistry().Scope("src"))}
	costs := kernel.DefaultCosts()
	charge := func(sim.Duration) {}
	dataBase := vm.DataBase(len(text))

	if err := sess.SendRound(nil, c, costs, charge); err != nil {
		t.Fatal(err)
	}
	// Between rounds: one real change, one rewrite-in-place (dirty but
	// unchanged — not sent again), one zero page dirtied with zeros (also
	// unchanged).
	c.WriteU32(dataBase+vm.PageSize, 0xfeedface)
	v, _ := c.ReadU32(dataBase + 2*vm.PageSize)
	c.WriteU32(dataBase+2*vm.PageSize, v)
	c.WriteU32(dataBase+6*vm.PageSize, 0)
	if err := sess.SendRound(nil, c, costs, charge); err != nil {
		t.Fatal(err)
	}
	net.ClearFaults()
	status, err := sess.CloseSynthetic(nil, c, 7, costs, charge)
	if err != nil || status != 0 {
		t.Fatalf("close: status %d, err %v (sink err %v)", status, err, sink.err)
	}
	aoutRaw, filesRaw, stackRaw, err = sink.asm.Spool()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return aoutRaw, filesRaw, stackRaw, sess
}

// TestWireModesBitIdentical runs the identical transfer raw, elide and
// elide+LZ: the restored images must match bit for bit, and the efficient
// modes must actually have used their encodings and shipped fewer bytes.
func TestWireModesBitIdentical(t *testing.T) {
	rawAout, rawFiles, rawStack, rawSess := wireTransfer(t, WireRaw, 1, netsim.FaultSpec{})
	if rawSess.PagesZero != 0 || rawSess.PagesRef != 0 || rawSess.PagesLZ != 0 {
		t.Fatalf("raw session used efficiency encodings: %+v", rawSess.Stats())
	}
	for _, mode := range []WireMode{WireElide, WireElideLZ} {
		aout, files, stack, sess := wireTransfer(t, mode, 1, netsim.FaultSpec{})
		if !bytes.Equal(aout, rawAout) || !bytes.Equal(files, rawFiles) || !bytes.Equal(stack, rawStack) {
			t.Fatalf("%v: restored image differs from raw path", mode)
		}
		if sess.WireBytes >= rawSess.WireBytes {
			t.Fatalf("%v shipped %d B, raw %d B — no win on an elidable image",
				mode, sess.WireBytes, rawSess.WireBytes)
		}
		if sess.PagesZero == 0 || sess.PagesRef == 0 {
			t.Fatalf("%v: zero pages or unchanged-page elision not exercised: %+v", mode, sess.Stats())
		}
		if mode == WireElideLZ && sess.PagesLZ == 0 {
			t.Fatalf("lz: no page was compressed: %+v", sess.Stats())
		}
		if sess.SavedBytes != rawSess.WireBytes-sess.WireBytes {
			t.Fatalf("%v: SavedBytes %d does not equal the raw gap %d",
				mode, sess.SavedBytes, rawSess.WireBytes-sess.WireBytes)
		}
	}
}

// TestUnchangedPagesElidedUnderFaults: an unchanged page is not sent
// again because the destination holds what the page last shipped as, and
// it does because a record either lands or its send is retried (or the
// session dies). Run the two-round transfer with records dropped and
// duplicated: the pages left unsent must still restore bit for bit.
func TestUnchangedPagesElidedUnderFaults(t *testing.T) {
	rawAout, rawFiles, rawStack, _ := wireTransfer(t, WireRaw, 1, netsim.FaultSpec{})
	lossy := netsim.FaultSpec{Drop: 0.2, Dup: 0.2}
	for _, mode := range []WireMode{WireElide, WireElideLZ} {
		resends := int64(0)
		for seed := uint64(1); seed <= 4; seed++ {
			aout, files, stack, sess := wireTransfer(t, mode, seed, lossy)
			if sess.PagesRef == 0 {
				t.Fatalf("%v seed %d: no unchanged page was elided: %+v", mode, seed, sess.Stats())
			}
			if !bytes.Equal(aout, rawAout) || !bytes.Equal(files, rawFiles) || !bytes.Equal(stack, rawStack) {
				t.Fatalf("%v seed %d: restored image differs from the fault-free raw path", mode, seed)
			}
			resends += sess.Obs.Resends.Value()
		}
		if resends == 0 {
			t.Fatalf("%v: no record was dropped, so the faults tested nothing", mode)
		}
	}
}

// BenchmarkAssembler drives the steady-state pre-copy loop — dirty one
// page, SendRound over a real netsim stream, assemble on the far side —
// and holds the send path to (near) zero heap allocations per round: the
// record buffers, page scratch and netsim delivery copies are all pooled.
func BenchmarkAssembler(b *testing.B) {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	src := net.AddHost("src")
	net.AddHost("dst")
	text := make([]byte, 256)
	data := make([]byte, 16*vm.PageSize)
	for i := range data {
		data[i] = byte(i >> 2)
	}
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
	c := vm.New(text, data, vm.MinISA(text))
	c.SetDirtyTracking(true)
	hello := &StreamHello{PID: 1, TextLen: uint32(len(text)), DataLen: uint32(len(data))}
	st, err := src.OpenStream(nil, "dst", 9, hello.Encode())
	if err != nil {
		b.Fatal(err)
	}
	sess := &StreamSession{Stream: st}
	// The allocation assertion below covers the INSTRUMENTED path: a full
	// StreamObs counter set is attached (as migd attaches one), so any
	// regression that puts allocations on the metrics hot path fails here.
	reg := obs.NewRegistry()
	sess.Obs = NewStreamObs(reg.Scope("src"))
	net.SetObs(reg)
	costs := kernel.DefaultCosts()
	charge := func(sim.Duration) {}
	dataBase := vm.DataBase(len(text))

	round := func(i int) {
		c.WriteU32(dataBase+uint32(i%16)*vm.PageSize, uint32(i))
		if err := sess.SendRound(nil, c, costs, charge); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the pools, maps and scratch buffers, then demand a quiet heap.
	for i := 0; i < 32; i++ {
		round(i)
	}
	if avg := testing.AllocsPerRun(100, func() { round(1000) }); avg > 2 {
		b.Fatalf("instrumented steady-state send round allocates %.1f times, want ≤2", avg)
	}
	if sess.Obs.Recs.Value() == 0 || sess.Obs.WireBytes.Value() == 0 {
		b.Fatal("instrumentation attached but recorded nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
	b.StopTimer()
	if sink.err != nil {
		b.Fatal(sink.err)
	}
}

// BenchmarkAssemblerStore is the cross-session variant: both stores wired,
// the destination's summary advertised, so the steady-state round elides
// its dirty page to a speculative store ref (queued, batch-flushed,
// NACK-polled) — and that whole path must stay as allocation-free as the
// plain one.
func BenchmarkAssemblerStore(b *testing.B) {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	src := net.AddHost("src")
	net.AddHost("dst")
	text := make([]byte, 256)
	data := make([]byte, 16*vm.PageSize)
	for i := range data {
		data[i] = byte(i >> 2)
	}
	destStore := NewPageStore(DefaultStoreBudget)
	var sink *asmSink
	dstHost, _ := net.Host("dst")
	dstHost.ListenStream(9, func(_ *sim.Task, _ string, hello []byte) (netsim.StreamSink, error) {
		asm, err := NewImageAssembler(hello)
		if err != nil {
			return nil, err
		}
		asm.SetStore(destStore)
		sink = &asmSink{asm: asm}
		return sink, nil
	})
	c := vm.New(text, data, vm.MinISA(text))
	c.SetDirtyTracking(true)
	hello := &StreamHello{PID: 1, TextLen: uint32(len(text)), DataLen: uint32(len(data))}
	st, err := src.OpenStream(nil, "dst", 9, hello.Encode())
	if err != nil {
		b.Fatal(err)
	}
	sess := &StreamSession{Stream: st, Store: NewPageStore(DefaultStoreBudget)}
	reg := obs.NewRegistry()
	sess.Obs = NewStreamObs(reg.Scope("src"))
	net.SetObs(reg)
	costs := kernel.DefaultCosts()
	charge := func(sim.Duration) {}
	dataBase := vm.DataBase(len(text))

	// The dirty page alternates between two contents. Once both versions
	// sit in the destination store, every round's page hash is one the
	// summary claims but differs from the last shipped — the speculative
	// store-ref condition — so the steady state is: queue one ref, flush
	// one batch record, poll NACKs, get none.
	round := func(i int) {
		c.WriteU32(dataBase+8*vm.PageSize, uint32(i%2))
		if err := sess.SendRound(nil, c, costs, charge); err != nil {
			b.Fatal(err)
		}
	}
	round(0)
	round(1)
	sess.Remote = destStore.Summary()
	spec0 := sess.PagesSpec
	n := 0
	for ; n < 32; n++ {
		round(n)
	}
	if sess.PagesSpec <= spec0 || sess.SpecNacks != 0 {
		b.Fatalf("warmed rounds shipped no speculative refs: %+v", sess.Stats())
	}
	if avg := testing.AllocsPerRun(100, func() { round(n); n++ }); avg > 2 {
		b.Fatalf("warmed-store steady-state send round allocates %.1f times, want ≤2", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
	b.StopTimer()
	if sink.err != nil {
		b.Fatal(sink.err)
	}
}
