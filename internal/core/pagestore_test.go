package core

import (
	"testing"

	"procmig/internal/obs"
	"procmig/internal/vm"
)

// testPage builds one page of deterministic non-zero content.
func testPage(seed byte) []byte {
	p := make([]byte, vm.PageSize)
	for i := range p {
		p[i] = byte(int(seed)*131 + i*7 + 1)
	}
	return p
}

func TestPageStoreInsertAcquire(t *testing.T) {
	ps := NewPageStore(int64(3 * vm.PageSize))
	reg := obs.NewRegistry()
	po := NewPageStoreObs(reg.Scope("h"))
	ps.SetObs(po)

	pages := [][]byte{testPage(1), testPage(2), testPage(3)}
	hashes := make([]uint64, len(pages))
	for i, p := range pages {
		hashes[i] = vm.HashPage(p)
		ps.Insert(hashes[i], p)
	}
	if ps.Len() != 3 || ps.Bytes() != int64(3*vm.PageSize) {
		t.Fatalf("store holds %d entries / %d bytes", ps.Len(), ps.Bytes())
	}
	if g := ps.Gen(); g != 0 {
		t.Fatalf("inserts within budget bumped the generation to %d", g)
	}
	for i, h := range hashes {
		data, err := ps.Acquire(h)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(pages[i]) {
			t.Fatalf("page %d came back with different bytes", i)
		}
	}
	if po.Hits.Value() != 3 || po.Inserts.Value() != 3 {
		t.Fatalf("hits=%d inserts=%d", po.Hits.Value(), po.Inserts.Value())
	}
	if data, err := ps.Acquire(0xdead); err != nil || data != nil {
		t.Fatalf("absent hash returned (%v, %v), want (nil, nil)", data, err)
	}
	if po.Misses.Value() != 1 {
		t.Fatalf("misses=%d", po.Misses.Value())
	}
	if po.Bytes.Value() != int64(3*vm.PageSize) {
		t.Fatalf("bytes gauge=%d", po.Bytes.Value())
	}
}

func TestPageStoreLRUEviction(t *testing.T) {
	ps := NewPageStore(int64(2 * vm.PageSize))
	reg := obs.NewRegistry()
	po := NewPageStoreObs(reg.Scope("h"))
	ps.SetObs(po)

	a, b, c := testPage(1), testPage(2), testPage(3)
	ha, hb, hc := vm.HashPage(a), vm.HashPage(b), vm.HashPage(c)
	ps.Insert(ha, a)
	ps.Insert(hb, b)
	// Touch a so b becomes the LRU victim.
	if _, err := ps.Acquire(ha); err != nil {
		t.Fatal(err)
	}
	gen := ps.Gen()
	ps.Insert(hc, c)
	if ps.Contains(hb) {
		t.Fatal("LRU entry survived an over-budget insert")
	}
	if !ps.Contains(ha) || !ps.Contains(hc) {
		t.Fatal("recently used / new entries evicted instead of the LRU one")
	}
	if ps.Gen() == gen {
		t.Fatal("eviction did not bump the generation")
	}
	if po.Evictions.Value() != 1 {
		t.Fatalf("evictions=%d", po.Evictions.Value())
	}
	if ps.Bytes() > ps.Budget() {
		t.Fatalf("resident %d bytes exceeds the %d budget", ps.Bytes(), ps.Budget())
	}
	// An evicted hash is a soft miss, never an error.
	if data, err := ps.Acquire(hb); err != nil || data != nil {
		t.Fatalf("evicted hash returned (%v, %v), want (nil, nil)", data, err)
	}
	// Re-inserting an existing hash only refreshes LRU order, no growth.
	ps.Insert(ha, a)
	if ps.Len() != 2 || ps.Bytes() != int64(2*vm.PageSize) {
		t.Fatalf("duplicate insert changed size: %d entries / %d bytes", ps.Len(), ps.Bytes())
	}
}

func TestPageStoreZeroBudget(t *testing.T) {
	ps := NewPageStore(0)
	p := testPage(9)
	ps.Insert(vm.HashPage(p), p)
	if ps.Len() != 0 || ps.Bytes() != 0 {
		t.Fatalf("zero-budget store accepted an insert: %d entries", ps.Len())
	}
	// No store keeps data that is not one page: Acquire lends whole pages.
	ps = NewPageStore(DefaultStoreBudget)
	short := p[:vm.PageSize-1]
	ps.Insert(vm.HashPage(short), short)
	if ps.Len() != 0 {
		t.Fatal("store accepted a short page")
	}
}

func TestPageStorePoisonFailsLoudly(t *testing.T) {
	ps := NewPageStore(int64(4 * vm.PageSize))
	reg := obs.NewRegistry()
	po := NewPageStoreObs(reg.Scope("h"))
	ps.SetObs(po)

	p := testPage(5)
	h := vm.HashPage(p)
	ps.Insert(h, p)
	// Flip a stored byte behind the store's back: the next Acquire must
	// re-verify, fail with ErrHashMismatch, and drop the entry.
	ps.entries[h].data[17] ^= 0xff
	gen := ps.Gen()
	if _, err := ps.Acquire(h); err != ErrHashMismatch {
		t.Fatalf("poisoned acquire err = %v, want ErrHashMismatch", err)
	}
	if ps.Contains(h) {
		t.Fatal("poisoned entry still resident")
	}
	if ps.Gen() == gen {
		t.Fatal("dropping a poisoned entry did not bump the generation")
	}
	if po.Poisoned.Value() != 1 {
		t.Fatalf("poisoned=%d", po.Poisoned.Value())
	}
	// Dropped means a later Acquire is a plain miss again.
	if data, err := ps.Acquire(h); err != nil || data != nil {
		t.Fatalf("post-poison acquire = (%v, %v), want (nil, nil)", data, err)
	}
}

func TestPageStoreReset(t *testing.T) {
	ps := NewPageStore(int64(4 * vm.PageSize))
	for i := byte(0); i < 4; i++ {
		p := testPage(i)
		ps.Insert(vm.HashPage(p), p)
	}
	gen := ps.Gen()
	ps.Reset()
	if ps.Len() != 0 || ps.Bytes() != 0 {
		t.Fatalf("reset left %d entries / %d bytes", ps.Len(), ps.Bytes())
	}
	if ps.Gen() == gen {
		t.Fatal("reset did not bump the generation")
	}
	// The store keeps working after a reset.
	p := testPage(9)
	h := vm.HashPage(p)
	ps.Insert(h, p)
	if data, err := ps.Acquire(h); err != nil || data == nil {
		t.Fatalf("post-reset acquire = (%v, %v)", data, err)
	}
}

func TestStoreSummaryRoundTrip(t *testing.T) {
	ps := NewPageStore(int64(64 * vm.PageSize))
	var hashes []uint64
	for i := byte(0); i < 32; i++ {
		p := testPage(i)
		h := vm.HashPage(p)
		hashes = append(hashes, h)
		ps.Insert(h, p)
	}
	s := ps.Summary()
	if s.Gen != ps.Gen() || s.Entries != 32 {
		t.Fatalf("summary header %+v", s)
	}
	got, err := DecodeStoreSummary(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != s.Gen || got.Entries != s.Entries || got.K != s.K ||
		string(got.Bits) != string(s.Bits) {
		t.Fatalf("summary did not round-trip: %+v vs %+v", got, s)
	}
	// A bloom filter never false-negatives: every resident hash matches.
	for _, h := range hashes {
		if !got.MayContain(h) {
			t.Fatalf("summary denies resident hash %x", h)
		}
	}
	// Absent hashes are mostly denied (allow the designed <1% FP rate a
	// wide margin — the check is that the filter filters at all).
	fp := 0
	for i := uint64(0); i < 1000; i++ {
		if got.MayContain(0xabcdef<<8 + i*2654435761) {
			fp++
		}
	}
	if fp > 100 {
		t.Fatalf("%d/1000 absent hashes matched — filter is not filtering", fp)
	}
}

func TestStoreSummaryEmptyAndNil(t *testing.T) {
	var nilSum *StoreSummary
	if nilSum.MayContain(42) {
		t.Fatal("nil summary claimed a page")
	}
	s := NewPageStore(int64(vm.PageSize)).Summary()
	if s.MayContain(42) {
		t.Fatal("empty store's summary claimed a page")
	}
	got, err := DecodeStoreSummary(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.MayContain(42) {
		t.Fatal("decoded empty summary claimed a page")
	}
}

func TestDecodeStoreSummaryRejectsBadInput(t *testing.T) {
	ps := NewPageStore(int64(4 * vm.PageSize))
	p := testPage(1)
	ps.Insert(vm.HashPage(p), p)
	raw := ps.Summary().Encode()

	if _, err := DecodeStoreSummary(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := DecodeStoreSummary([]byte{1, 2, 3}); err == nil {
		t.Fatal("bad magic accepted")
	}
	for n := 0; n < len(raw); n++ {
		if _, err := DecodeStoreSummary(raw[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	if _, err := DecodeStoreSummary(append(raw[:len(raw):len(raw)], 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// K = 0 and absurd K must be rejected.
	bad := append([]byte(nil), raw...)
	bad[10] = 0
	if _, err := DecodeStoreSummary(bad); err == nil {
		t.Fatal("K=0 accepted")
	}
	bad[10] = 200
	if _, err := DecodeStoreSummary(bad); err == nil {
		t.Fatal("K=200 accepted")
	}
	// A bitmap length over the cap must be refused before allocation.
	huge := append([]byte(nil), raw[:11]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff)
	if _, err := DecodeStoreSummary(huge); err == nil {
		t.Fatal("oversized bitmap length accepted")
	}
}
