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

// storeHarness drives full streaming transfers of one fixed image over a
// real netsim stream into an assembler backed by a destination page store,
// so the cross-session dedup paths — speculative refs, NACK resends,
// poisoning — run exactly as migd runs them.
type storeHarness struct {
	t     *testing.T
	net   *netsim.Network
	src   *netsim.Host
	cpu   *vm.CPU
	text  []byte
	store *PageStore // destination store, shared across transfers
	sink  *asmSink
}

func newStoreHarness(t *testing.T, destBudget int64) *storeHarness {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	src := net.AddHost("src")
	net.AddHost("dst")
	text := make([]byte, 600)
	for i := range text {
		text[i] = byte(i * 3)
	}
	data := make([]byte, 8*vm.PageSize)
	x := uint32(0x2545f491)
	for i := range data {
		x = x*1664525 + 1013904223 // LCG noise: LZ must not be able to elide it
		data[i] = byte(x>>24) | 1
	}
	h := &storeHarness{
		t: t, net: net, src: src, text: text,
		cpu:   vm.New(text, data, vm.MinISA(text)),
		store: NewPageStore(destBudget),
	}
	dstHost, _ := net.Host("dst")
	if err := dstHost.ListenStream(9, func(_ *sim.Task, _ string, hello []byte) (netsim.StreamSink, error) {
		asm, err := NewImageAssembler(hello)
		if err != nil {
			return nil, err
		}
		asm.SetStore(h.store)
		h.sink = &asmSink{asm: asm}
		return h.sink, nil
	}); err != nil {
		t.Fatal(err)
	}
	return h
}

// transfer runs one complete session against the destination store:
// one full round, metadata, commit, close. remote is what the source
// believes the destination holds; srcStore, when non-nil, receives the
// source-side inserts. Returns the session for its accounting and the
// spooled image (nil when the transfer failed — the caller then inspects
// sink.err).
func (h *storeHarness) transfer(remote *StoreSummary, srcStore *PageStore) (*StreamSession, []byte) {
	st, err := h.src.OpenStream(nil, "dst", 9, (&StreamHello{
		PID: 7, ISA: h.cpu.ISA,
		TextLen: uint32(len(h.cpu.Text)), DataLen: uint32(len(h.cpu.Data)), Source: "src",
	}).Encode())
	if err != nil {
		h.t.Fatal(err)
	}
	sess := &StreamSession{Stream: st, Remote: remote, Store: srcStore}
	costs := kernel.DefaultCosts()
	charge := func(sim.Duration) {}
	if err := sess.SendRound(nil, h.cpu, costs, charge); err != nil {
		h.t.Fatal(err)
	}
	if _, err := sess.CloseSynthetic(nil, h.cpu, 7, costs, charge); err != nil {
		h.t.Fatal(err)
	}
	if h.sink.err != nil {
		return sess, nil
	}
	aoutRaw, filesRaw, stackRaw, err := h.sink.asm.Spool()
	if err != nil {
		h.t.Fatalf("spool: %v (session %+v)", err, sess.Stats())
	}
	img := append(append(append([]byte(nil), aoutRaw...), filesRaw...), stackRaw...)
	return sess, img
}

// TestStoreCrossSessionElision: the first transfer warms the destination
// store page by page; a second session of the identical image, told what
// the store holds, ships speculative refs instead of bytes — and the
// restored image is bit-identical.
func TestStoreCrossSessionElision(t *testing.T) {
	h := newStoreHarness(t, DefaultStoreBudget)
	srcStore := NewPageStore(DefaultStoreBudget)

	cold, img1 := h.transfer(h.store.Summary(), srcStore)
	if img1 == nil {
		t.Fatal(h.sink.err)
	}
	if cold.PagesSpec != 0 {
		t.Fatalf("cold transfer shipped %d speculative refs against an empty store", cold.PagesSpec)
	}
	if h.store.Len() == 0 {
		t.Fatal("destination store not fed by arriving pages")
	}
	if srcStore.Len() == 0 {
		t.Fatal("source store not fed by shipped pages")
	}

	warm, img2 := h.transfer(h.store.Summary(), srcStore)
	if img2 == nil {
		t.Fatal(h.sink.err)
	}
	if warm.PagesSpec == 0 {
		t.Fatalf("warm transfer elided nothing: %+v", warm.Stats())
	}
	if warm.SpecNacks != 0 {
		t.Fatalf("warm transfer bounced %d refs with everything resident", warm.SpecNacks)
	}
	if warm.WireBytes >= cold.WireBytes/4 {
		t.Fatalf("warm transfer shipped %d B, cold %d B — refs did not pay",
			warm.WireBytes, cold.WireBytes)
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("image restored through store refs differs from the cold copy")
	}
}

// TestStoreEvictionResendsNotErrors: pages evicted between the summary
// advertisement and the refs arriving are soft misses — NACKed and resent,
// the transfer commits, the image is intact.
func TestStoreEvictionResendsNotErrors(t *testing.T) {
	h := newStoreHarness(t, DefaultStoreBudget)
	if _, img := h.transfer(nil, nil); img == nil {
		t.Fatal(h.sink.err)
	}
	summary := h.store.Summary()
	// Evict everything the summary just advertised: budget churn squeezed
	// the entries out after the handshake. The refs must all bounce.
	h.store.Reset()
	sess, img := h.transfer(summary, nil)
	if img == nil {
		t.Fatal(h.sink.err)
	}
	if sess.PagesSpec == 0 {
		t.Fatal("stale summary produced no speculative refs")
	}
	if sess.SpecNacks != sess.PagesSpec {
		t.Fatalf("%d refs, %d NACKs — evicted entries must all resend",
			sess.PagesSpec, sess.SpecNacks)
	}
	if _, coldImg := h.transfer(nil, nil); !bytes.Equal(img, coldImg) {
		t.Fatal("image restored through NACK resends differs")
	}
}

// TestStoreFalsePositiveSummaryResends: a summary whose filter claims
// everything (all bits set) makes the source speculate on every page; the
// destination's store has none of them, so every ref NACKs and resends —
// wasted refs, correct image.
func TestStoreFalsePositiveSummaryResends(t *testing.T) {
	h := newStoreHarness(t, DefaultStoreBudget)
	lying := &StoreSummary{Gen: 1, Entries: 1000, K: summaryProbes, Bits: make([]byte, 256)}
	for i := range lying.Bits {
		lying.Bits[i] = 0xff
	}
	sess, img := h.transfer(lying, nil)
	if img == nil {
		t.Fatal(h.sink.err)
	}
	if sess.PagesSpec == 0 || sess.SpecNacks != sess.PagesSpec {
		t.Fatalf("all-ones summary: %d refs, %d NACKs — want every ref bounced",
			sess.PagesSpec, sess.SpecNacks)
	}
	if _, coldImg := h.transfer(nil, nil); !bytes.Equal(img, coldImg) {
		t.Fatal("image restored through false-positive resends differs")
	}
}

// TestStorePoisonedEntryFailsLoudly: a store entry whose bytes went bad is
// the one hard failure — the ref must kill the transfer with
// ErrHashMismatch, never restart from silently wrong memory.
func TestStorePoisonedEntryFailsLoudly(t *testing.T) {
	h := newStoreHarness(t, DefaultStoreBudget)
	if _, img := h.transfer(nil, nil); img == nil {
		t.Fatal(h.sink.err)
	}
	summary := h.store.Summary()
	// Corrupt every resident entry behind the store's back so the refs
	// cannot be satisfied by a healthy copy.
	for _, e := range h.store.entries {
		e.data[3] ^= 0xff
	}
	sess, img := h.transfer(summary, nil)
	if img != nil {
		t.Fatalf("poisoned store committed a transfer: %+v", sess.Stats())
	}
	if h.sink.err != ErrHashMismatch {
		t.Fatalf("sink err = %v, want ErrHashMismatch", h.sink.err)
	}
}

// TestStoreRefBatchAllocatesNoPages: a ref the host store satisfies
// borrows the store's buffer. Resolving a batch of 256 store-held refs into
// a fresh assembler allocates less than an eighth of the 256 KiB those
// pages hold: the page table, not the pages.
func TestStoreRefBatchAllocatesNoPages(t *testing.T) {
	const n = 256
	store := NewPageStore(DefaultStoreBudget)
	batch := binary.BigEndian.AppendUint32([]byte{RecPageStoreRefBatch}, n)
	page := make([]byte, vm.PageSize)
	for pg := uint32(0); pg < n; pg++ {
		binary.BigEndian.PutUint32(page, pg+1)
		h := vm.HashPage(page)
		store.Insert(h, page)
		batch = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(batch, pg), h)
	}
	hello := (&StreamHello{PID: 3, DataLen: n * vm.PageSize, Txn: 1}).Encode()
	asms := make([]*ImageAssembler, 8)
	for i := range asms {
		asm, err := NewImageAssembler(hello)
		if err != nil {
			t.Fatal(err)
		}
		asm.SetStore(store)
		asms[i] = asm
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, asm := range asms {
		if err := asm.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for _, asm := range asms {
		if asm.pages.n != n || len(asm.specMiss) != 0 {
			t.Fatalf("batch resolved %d pages with %d misses, want %d and none", asm.pages.n, len(asm.specMiss), n)
		}
	}
	perBatch := (after.TotalAlloc - before.TotalAlloc) / uint64(len(asms))
	if perBatch >= n*vm.PageSize/8 {
		t.Fatalf("resolving %d store-held refs allocates %d B, want < %d (1/8 of the pages)",
			n, perBatch, n*vm.PageSize/8)
	}
	t.Logf("resolving %d store-held refs allocates %d B", n, perBatch)
}

// TestStoreBorrowedPageCopiedOnWrite: a record that lands on a page the
// assembler borrowed from the store, before any commit, gets a fresh
// buffer. Written in place, it would rewrite the store's entry under every
// other image that borrowed it, and the store's next use would find it
// poisoned.
func TestStoreBorrowedPageCopiedOnWrite(t *testing.T) {
	const pg = 5
	store := NewPageStore(DefaultStoreBudget)
	page := testPage(3)
	h := vm.HashPage(page)
	store.Insert(h, page)
	ref := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32([]byte{RecPageStoreRefBatch, 0, 0, 0, 1}, pg), h)
	other := testPage(4)
	hello := (&StreamHello{PID: 3, DataLen: 8 * vm.PageSize}).Encode()
	borrower := func() *ImageAssembler {
		asm, err := NewImageAssembler(hello)
		if err != nil {
			t.Fatal(err)
		}
		asm.SetStore(store)
		if err := asm.Apply(ref); err != nil {
			t.Fatal(err)
		}
		return asm
	}
	bystander := borrower()
	for name, rec := range map[string][]byte{
		"page":    appendPageRec(nil, pg, other),
		"zero":    appendPageZeroRec(nil, pg),
		"LZ page": appendPageLZRec(nil, pg, AppendLZ(nil, other)),
	} {
		asm := borrower()
		if err := asm.Apply(rec); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(asm.pages.get(pg), page) {
			t.Fatalf("%s record never landed; the test proves nothing", name)
		}
		if !bytes.Equal(bystander.pages.get(pg), page) {
			t.Fatalf("%s record rewrote a page another image borrowed", name)
		}
		if data, err := store.Acquire(h); err != nil || !bytes.Equal(data, page) {
			t.Fatalf("%s record rewrote the store's entry (err %v)", name, err)
		}
	}
}

// TestStoreRefBatchDecodeRejectsBadInput covers the aggregated-ref record's
// framing: a count that disagrees with the payload must be refused.
func TestStoreRefBatchDecodeRejectsBadInput(t *testing.T) {
	asm, err := NewImageAssembler((&StreamHello{PID: 1, TextLen: 10, DataLen: 10}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte{RecPageStoreRefBatch}
	rec = append(rec, 0, 0, 0, 2) // claims two refs
	rec = append(rec, make([]byte, 12)...)
	if err := asm.Apply(rec); err == nil {
		t.Fatal("short batch accepted")
	}
	rec2 := []byte{RecPageStoreRefBatch, 0, 0, 0, 1}
	rec2 = append(rec2, make([]byte, 13)...) // one ref plus a trailing byte
	if err := asm.Apply(rec2); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	header := []byte{RecPageStoreRefBatch, 0, 0, 0, 1}
	for n := 1; n < len(header); n++ {
		if err := asm.Apply(header[:n]); err == nil {
			t.Fatalf("truncated batch header (%d bytes) accepted", n)
		}
	}
	// A well-formed batch against no store records misses, not errors.
	good := []byte{RecPageStoreRefBatch, 0, 0, 0, 1}
	good = append(good, 0, 0, 0, 5)             // page 5
	good = append(good, 1, 2, 3, 4, 5, 6, 7, 8) // some hash
	if err := asm.Apply(good); err != nil {
		t.Fatal(err)
	}
	if _, ok := asm.specMiss[5]; !ok {
		t.Fatal("storeless ref not recorded as a miss")
	}
}
