package core

import (
	"encoding/binary"

	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// The host-wide content-addressed page store. The PR 4 dedup table lives
// and dies with one stream session, so a controller drain that moves 40
// replicas of the same program off a host re-ships the identical
// text/data pages 40 times. The store lifts the table to the machine:
// every page a destination receives and verifies — and every page a
// source ships — is inserted keyed by its content hash, bounded by a hard
// byte budget with LRU eviction. A destination advertises a bloom-filter
// summary of its store before a session opens; the source elides matching
// pages to speculative refs across sessions, and the destination NACKs
// any ref its store cannot satisfy so the source resends the bytes —
// correctness never depends on the filter, only the byte count does.
//
// Poisoning is the one hard failure: a stored page is re-hashed on every
// use, and a mismatch (the store's memory went bad) fails the transfer
// loudly with ErrHashMismatch rather than restarting a process from
// silently wrong bytes. Eviction and bloom false positives are soft: they
// surface as NACKs and cost a resend, never correctness.

// DefaultStoreBudget is the per-machine store's byte cap: 4 MiB ≈ 4096
// pages, a small fraction of an era workstation's memory.
const DefaultStoreBudget = 4 << 20

// storeEntry is one cached page on the store's intrusive LRU list.
type storeEntry struct {
	hash       uint64
	data       []byte
	lent       bool // Acquire handed data out: it is read-only and never recycled
	prev, next *storeEntry
}

// PageStore is one machine's bounded content-addressed page cache.
// Engine tasks run one at a time, so like the assembler it needs no
// locking.
type PageStore struct {
	budget  int64
	bytes   int64
	gen     uint32 // bumped on every eviction/reset; stamps summaries
	entries map[uint64]*storeEntry
	head    *storeEntry // most recently used
	tail    *storeEntry // least recently used
	free    *storeEntry // recycled entries (linked via next), so steady-state
	// insert+evict churn allocates nothing — the send round stays 0 allocs/op.
	obs *PageStoreObs
}

// NewPageStore builds a store with the given byte budget.
func NewPageStore(budget int64) *PageStore {
	return &PageStore{budget: budget, entries: map[uint64]*storeEntry{}}
}

// PageStoreObs mirrors store activity into registry counters. Pointers are
// pre-resolved so the hot paths stay counter arithmetic.
type PageStoreObs struct {
	Hits      *obs.Counter // Acquire satisfied from the store
	Misses    *obs.Counter // Acquire found nothing (never inserted, or evicted)
	Inserts   *obs.Counter // new pages stored
	Evictions *obs.Counter // pages pushed out by the byte budget
	Poisoned  *obs.Counter // re-verification failures (ErrHashMismatch)
	Bytes     *obs.Gauge   // current resident bytes
}

// NewPageStoreObs resolves the store counters under one host scope.
func NewPageStoreObs(s *obs.Scope) *PageStoreObs {
	return &PageStoreObs{
		Hits:      s.Counter("pagestore.hits"),
		Misses:    s.Counter("pagestore.misses"),
		Inserts:   s.Counter("pagestore.inserts"),
		Evictions: s.Counter("pagestore.evictions"),
		Poisoned:  s.Counter("pagestore.poisoned"),
		Bytes:     s.Gauge("pagestore.bytes"),
	}
}

// SetObs attaches registry accounting (nil detaches).
func (ps *PageStore) SetObs(o *PageStoreObs) { ps.obs = o }

// Budget reports the byte cap.
func (ps *PageStore) Budget() int64 { return ps.budget }

// Bytes reports the resident page bytes.
func (ps *PageStore) Bytes() int64 { return ps.bytes }

// Len reports the resident page count.
func (ps *PageStore) Len() int { return len(ps.entries) }

// Gen reports the store generation: bumped whenever content leaves the
// store (eviction or reset), so a summary's claims can be dated.
func (ps *PageStore) Gen() uint32 { return ps.gen }

// unlink removes e from the LRU list.
func (ps *PageStore) unlink(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		ps.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		ps.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (ps *PageStore) pushFront(e *storeEntry) {
	e.prev, e.next = nil, ps.head
	if ps.head != nil {
		ps.head.prev = e
	}
	ps.head = e
	if ps.tail == nil {
		ps.tail = e
	}
}

// touch moves an existing entry to the front.
func (ps *PageStore) touch(e *storeEntry) {
	if ps.head == e {
		return
	}
	ps.unlink(e)
	ps.pushFront(e)
}

// drop removes e entirely and recycles it. A lent buffer is not recycled:
// an image may still hold it, so it goes to the collector with the last
// image that does, and the entry takes a fresh one on its next Insert.
func (ps *PageStore) drop(e *storeEntry) {
	ps.unlink(e)
	delete(ps.entries, e.hash)
	ps.bytes -= int64(len(e.data))
	e.hash = 0
	if e.lent {
		e.data, e.lent = nil, false
	}
	e.prev = nil
	e.next = ps.free
	ps.free = e
	if ps.obs != nil {
		ps.obs.Bytes.Set(ps.bytes)
	}
}

// Insert stores a copy of data (one page) under h, evicting LRU entries
// until the byte budget holds. Inserting a hash already present only
// refreshes its LRU position. A zero-budget store ignores inserts, and
// every store ignores data that is not exactly one page, so whatever
// Acquire lends is a whole page.
func (ps *PageStore) Insert(h uint64, data []byte) {
	if ps.budget <= 0 || len(data) != vm.PageSize {
		return
	}
	if e, ok := ps.entries[h]; ok {
		ps.touch(e)
		return
	}
	e := ps.free
	if e != nil {
		ps.free = e.next
		e.next = nil
	} else {
		e = &storeEntry{}
	}
	e.hash = h
	e.data = append(e.data[:0], data...)
	ps.entries[h] = e
	ps.pushFront(e)
	ps.bytes += int64(len(e.data))
	if ps.obs != nil {
		ps.obs.Inserts.Inc()
		ps.obs.Bytes.Set(ps.bytes)
	}
	for ps.bytes > ps.budget && ps.tail != nil {
		ps.gen++
		if ps.obs != nil {
			ps.obs.Evictions.Inc()
		}
		ps.drop(ps.tail)
	}
}

// Acquire looks h up and re-verifies the stored bytes before lending them
// out: the returned slice is the store's own buffer, and the caller may keep
// it for as long as it likes but must never write to it. From here on the
// entry is lent: eviction, Reset or a poison drop releases the buffer
// instead of recycling it, so no later Insert can rewrite bytes an image
// holds. A host thus holds one buffer per content however many images
// resolve refs to it. A miss (never inserted, or evicted since the summary
// was built) returns (nil, nil): the caller NACKs for a resend. A hash
// mismatch means the entry went bad in memory; the entry is dropped and
// the transfer must fail loudly — that is the poisoning story, and it
// returns ErrHashMismatch. An image does not re-check a buffer it already
// holds: bytes that go bad after the lend are not re-detected there, as
// for any other process memory.
func (ps *PageStore) Acquire(h uint64) ([]byte, error) {
	e, ok := ps.entries[h]
	if !ok {
		if ps.obs != nil {
			ps.obs.Misses.Inc()
		}
		return nil, nil
	}
	if vm.HashPage(e.data) != h {
		ps.gen++
		ps.drop(e)
		if ps.obs != nil {
			ps.obs.Poisoned.Inc()
		}
		return nil, ErrHashMismatch
	}
	ps.touch(e)
	e.lent = true
	if ps.obs != nil {
		ps.obs.Hits.Inc()
	}
	return e.data, nil
}

// Contains reports presence without verifying or touching LRU order.
func (ps *PageStore) Contains(h uint64) bool {
	_, ok := ps.entries[h]
	return ok
}

// Reset empties the store (a reboot loses the cache; the budget and obs
// wiring survive).
func (ps *PageStore) Reset() {
	for ps.tail != nil {
		ps.drop(ps.tail)
	}
	ps.gen++
}

// --- store summary (the handshake advertisement) ----------------------------

// StoreSummaryMagic continues the octal numbering (446 stream hello, 447
// heartbeat, 450 guardian hello, 451 store summary).
const StoreSummaryMagic = 0o451

// Bloom parameters: ~10 bits and 7 probes per entry give a false-positive
// rate under 1%; a false positive only costs one NACKed ref and a resend.
const (
	summaryBitsPerEntry = 10
	summaryProbes       = 7
	summaryMinBytes     = 64
	// StoreSummaryMaxBytes caps what an advertisement may carry (and what
	// DecodeStoreSummary will accept before reading the bitmap).
	StoreSummaryMaxBytes = 16 << 10
)

// StoreSummary is a generation-stamped bloom filter over the hashes a
// store holds. MayContain answering true does not guarantee the page is
// still there (eviction, or a plain false positive) — the speculative-ref
// NACK path covers both — but false is always definitive.
type StoreSummary struct {
	Gen     uint32 // store generation when the summary was built
	Entries uint32 // resident pages at build time (advisory)
	K       uint8  // probes per key
	Bits    []byte
}

// summaryProbe returns the i-th bloom bit index for h over m bits,
// Kirsch–Mitzenmacher double hashing on the two halves of the page hash
// (murmur-mixed, so the halves are independent enough).
func summaryProbe(h uint64, i, m uint32) uint32 {
	h2 := uint32(h>>32) | 1
	return (uint32(h) + i*h2) % m
}

// MayContain probes the filter. A nil or empty summary claims nothing.
func (s *StoreSummary) MayContain(h uint64) bool {
	if s == nil || s.Entries == 0 || len(s.Bits) == 0 {
		return false
	}
	m := uint32(len(s.Bits)) * 8
	for i := uint32(0); i < uint32(s.K); i++ {
		idx := summaryProbe(h, i, m)
		if s.Bits[idx>>3]&(1<<(idx&7)) == 0 {
			return false
		}
	}
	return true
}

// Reset makes s an empty filter at generation gen sized for n keys —
// ~10 bits a key, within [summaryMinBytes, StoreSummaryMaxBytes] — reusing
// its bitmap storage when that is large enough. Add then records each key.
// Reset and Add are the one Bloom builder: the page store's advertisement
// and hbd's anti-entropy digest are both built with them.
func (s *StoreSummary) Reset(gen uint32, n int) {
	nbytes := min(max((n*summaryBitsPerEntry+7)/8, summaryMinBytes), StoreSummaryMaxBytes)
	if cap(s.Bits) < nbytes {
		s.Bits = make([]byte, nbytes)
	} else {
		s.Bits = s.Bits[:nbytes]
		clear(s.Bits)
	}
	s.Gen, s.Entries, s.K = gen, uint32(n), summaryProbes
}

// Add records key h in the filter.
func (s *StoreSummary) Add(h uint64) {
	m := uint32(len(s.Bits)) * 8
	for i := uint32(0); i < uint32(s.K); i++ {
		idx := summaryProbe(h, i, m)
		s.Bits[idx>>3] |= 1 << (idx & 7)
	}
}

// Summary builds the store's current advertisement.
func (ps *PageStore) Summary() *StoreSummary {
	s := &StoreSummary{}
	s.Reset(ps.gen, len(ps.entries))
	for h := range ps.entries {
		s.Add(h)
	}
	return s
}

// storeSummaryHeader is the encoded size of a summary less its bitmap.
const storeSummaryHeader = 2 + 4 + 4 + 1 + 4

// AppendTo serializes the summary onto b and returns the extended slice.
func (s *StoreSummary) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, StoreSummaryMagic)
	b = binary.BigEndian.AppendUint32(b, s.Gen)
	b = binary.BigEndian.AppendUint32(b, s.Entries)
	b = append(b, s.K)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Bits)))
	return append(b, s.Bits...)
}

// Encode serializes a summary into fresh storage.
func (s *StoreSummary) Encode() []byte {
	return s.AppendTo(make([]byte, 0, storeSummaryHeader+len(s.Bits)))
}

// DecodeStoreSummary parses a summary, validating every field before
// consuming the bitmap: magic, a sane probe count, a bounded bitmap length
// that matches what actually follows, and no trailing garbage. A summary
// from the wire can make the source waste refs, never corrupt a restart,
// but the decoder still refuses malformed input loudly.
func DecodeStoreSummary(raw []byte) (*StoreSummary, error) {
	s, err := DecodeStoreSummaryView(raw)
	if err != nil {
		return nil, err
	}
	s.Bits = append([]byte(nil), s.Bits...)
	return &s, nil
}

// DecodeStoreSummaryView is DecodeStoreSummary without the copy: the
// summary's Bits alias raw, so decoding allocates nothing and the summary
// is valid only while raw is. A bitmap length above StoreSummaryMaxBytes is
// refused before a byte of the bitmap is read.
func DecodeStoreSummaryView(raw []byte) (StoreSummary, error) {
	r := reader{buf: raw}
	if r.u16() != StoreSummaryMagic {
		if r.err != nil {
			return StoreSummary{}, r.err
		}
		return StoreSummary{}, ErrBadMagic
	}
	var s StoreSummary
	s.Gen = r.u32()
	s.Entries = r.u32()
	if b := r.take(1); b != nil {
		s.K = b[0]
	}
	nbits := int(r.u32())
	if r.err != nil {
		return StoreSummary{}, r.err
	}
	if nbits > StoreSummaryMaxBytes || len(r.buf) != nbits {
		return StoreSummary{}, ErrTruncated
	}
	if s.K == 0 || s.K > 16 {
		return StoreSummary{}, ErrBadMagic
	}
	s.Bits = r.take(nbits)
	if r.err != nil {
		return StoreSummary{}, r.err
	}
	return s, nil
}

// --- the machine's store ----------------------------------------------------

// machineStore is the page store core keeps on a machine (kernel.Machine's
// Ext field), so it lives and dies with the machine. A nil store means
// "explicitly disabled" (ConfigureMachineStore with budget <= 0), which
// experiments use to pin the session-dedup baseline.
type machineStore struct{ store *PageStore }

// MachineStore returns m's page store, creating one with DefaultStoreBudget
// (and obs counters under m's scope) on first use. Returns nil when the
// store was explicitly disabled for m.
func MachineStore(m *kernel.Machine) *PageStore {
	if ms, ok := m.Ext.(*machineStore); ok {
		return ms.store
	}
	ConfigureMachineStore(m, DefaultStoreBudget)
	return m.Ext.(*machineStore).store
}

// ConfigureMachineStore replaces m's store with one of the given budget;
// budget <= 0 disables the store for m entirely (MachineStore returns nil).
func ConfigureMachineStore(m *kernel.Machine, budget int64) {
	ms := &machineStore{}
	if budget > 0 {
		ms.store = NewPageStore(budget)
		ms.store.SetObs(NewPageStoreObs(m.Obs))
	}
	m.Ext = ms
}

// CrashMachineStore empties m's store (a crash loses the machine's memory,
// the cache with it) but keeps the budget it was configured with, so a
// disabled store stays disabled.
func CrashMachineStore(m *kernel.Machine) {
	if ms, ok := m.Ext.(*machineStore); ok && ms.store != nil {
		ms.store.Reset()
	}
}

// --- summary service (the handshake extension) ------------------------------

// StoreSummaryPort serves a machine's store summary (515 classic migd,
// 516 pre-copy, 517 image stream, 518 store summary). A source fetches
// the destination's summary here before opening the image stream — the
// netsim stream handshake ack carries no payload, so the advertisement
// rides its own tiny pre-flight call.
const StoreSummaryPort = 518

// ServeStoreSummary registers the summary service for m on host. Both
// migd and guardd call this at boot; whoever is second finds the port
// taken, which is fine — they serve the same machine store.
func ServeStoreSummary(host *netsim.Host, m *kernel.Machine) error {
	err := host.Listen(StoreSummaryPort, func(_ *sim.Task, _ []byte) []byte {
		ps := MachineStore(m)
		if ps == nil {
			return nil // disabled: no advertisement, sources send full pages
		}
		return ps.Summary().Encode()
	})
	if err == errno.EEXIST {
		return nil
	}
	return err
}

// FetchStoreSummary asks dest for its store advertisement, best effort: a
// couple of resends on timeout, and nil — "advertise nothing, elide
// nothing" — on any failure, because a missing summary must never fail a
// migration that full pages would have completed.
func FetchStoreSummary(t *sim.Task, host *netsim.Host, dest string) *StoreSummary {
	for i := 0; i < 3; i++ {
		resp, err := host.Call(t, dest, StoreSummaryPort, nil)
		if err == errno.ETIMEDOUT {
			continue
		}
		if err != nil || len(resp) == 0 {
			return nil
		}
		s, derr := DecodeStoreSummary(resp)
		if derr != nil {
			return nil
		}
		return s
	}
	return nil
}
