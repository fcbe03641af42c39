package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"procmig/internal/aout"
	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// This file implements the streaming (pre-copy) migration image format and
// the source-side transfer engine. Instead of writing the three §4.3 dump
// files to /usr/tmp and having the destination read them back over NFS, a
// streaming migration ships the image directly migd-to-migd over a byte
// stream: text and a full set of data/stack pages while the process keeps
// running, then — after SIGDUMP freezes it — only the pages it dirtied
// since, plus the files/stack metadata. The destination reassembles the
// same three files locally, so restart needs no NFS reads for the image.

// StreamMagic continues the paper's octal numbering: 444 stack, 445 files,
// 446 stream hello.
const StreamMagic = 0o446

// Stream record types. Every Send on the stream carries exactly one record.
// Types 5 and 7 are the wire-efficiency encodings of a page: the
// destination assembler treats all three page-bearing kinds identically
// once decoded, so senders may mix them freely within a session.
const (
	RecText     byte = 1 // u32 offset, u32 n, n text bytes
	RecPage     byte = 2 // u32 page number, u32 n (= vm.PageSize), n bytes
	RecMeta     byte = 3 // u32 stackLen, u32 filesLen, files, u32 sfLen, stack file (sans stack)
	RecCommit   byte = 4 // two-phase-commit trailer, see CommitRecord
	RecPageZero byte = 5 // u32 page number; the page is all zeros
	RecPageLZ   byte = 7 // u32 page number, u32 frameLen, LZ frame (decodes to one page)
	// Types 6 and 8 are retired and must not be reused: the assembler
	// rejects them as unknown. Type 6 re-sent a page unchanged since this
	// session shipped it (such a page is now not sent at all); type 8
	// carried one speculative ref (batches carry them all).

	// RecStoreNack is the one-byte Stream.Sync query: "which speculative
	// refs could your store not satisfy?" The reply is u32 n, then n
	// strictly ascending u32 page numbers. Idempotent: satisfied pages
	// leave the list as their bytes arrive, so polling twice is harmless.
	RecStoreNack byte = 9
	// RecPageStoreRefBatch carries speculative cross-session refs: u32 n,
	// then n (u32 page number, u64 hash) pairs, each resolved against the
	// destination's host-wide page store. A ref is speculative — the
	// source trusts a bloom summary, so a miss is not an error: the
	// destination records it and reports it on the next store-NACK poll
	// (Stream.Sync) for the source to resend. Only a poisoned store entry
	// (re-verification mismatch) fails the transfer.
	// Refs travel only in batches: a mass-drain round whose pages all sit
	// in the destination store would otherwise pay hundreds of per-record
	// fixed costs (send/receive CPU charges and wire latency, each of which
	// can queue behind a full scheduler quantum on a contended host) to
	// ship a few kilobytes of refs.
	RecPageStoreRefBatch byte = 10
)

// WireMode selects how a StreamSession encodes page contents on the wire.
type WireMode byte

const (
	// WireElideLZ is the default (the zero value, so every session gets it
	// unless a caller opts out): a page whose content hash matches the one
	// it last shipped with this session is not sent again, an all-zero
	// page ships as a 5-byte RecPageZero, and anything else LZ-compressed —
	// falling back to a raw RecPage when compression does not pay.
	WireElideLZ WireMode = iota
	// WireElide dedups unchanged and zero pages but never compresses.
	WireElide
	// WireRaw ships every page as a full RecPage (the PR 1 encoding).
	WireRaw
)

func (w WireMode) String() string {
	switch w {
	case WireElideLZ:
		return "lz"
	case WireElide:
		return "elide"
	case WireRaw:
		return "raw"
	}
	return "?"
}

// ParseWireMode maps a -w flag argument to a mode; the empty string is the
// default mode. ok is false for anything unrecognized.
func ParseWireMode(s string) (WireMode, bool) {
	switch s {
	case "", "lz":
		return WireElideLZ, true
	case "elide":
		return WireElide, true
	case "raw":
		return WireRaw, true
	}
	return WireElideLZ, false
}

// TextChunk is how much text one RecText record carries.
const TextChunk = 4096

// StreamHello opens a streaming migration: enough of the image geometry
// for the destination to pre-size its buffers, plus the transaction id
// the destination records its verdict under (so a source whose close
// response was lost can ask what actually happened).
type StreamHello struct {
	PID     uint32 // source pid (names the spooled dump files)
	ISA     vm.Level
	Entry   uint32
	TextLen uint32
	DataLen uint32
	Txn     uint32 // migration transaction id (0: untracked)
	Source  string // source host name, for the files file
}

// Encode serializes a hello.
func (h *StreamHello) Encode() []byte {
	b := make([]byte, 0, 36+len(h.Source))
	b = binary.BigEndian.AppendUint16(b, StreamMagic)
	b = binary.BigEndian.AppendUint32(b, h.PID)
	b = append(b, byte(h.ISA))
	b = binary.BigEndian.AppendUint32(b, h.Entry)
	b = binary.BigEndian.AppendUint32(b, h.TextLen)
	b = binary.BigEndian.AppendUint32(b, h.DataLen)
	b = binary.BigEndian.AppendUint32(b, h.Txn)
	b = binary.BigEndian.AppendUint16(b, uint16(len(h.Source)))
	b = append(b, h.Source...)
	return b
}

// DecodeStreamHello parses a hello, verifying its magic number and that
// the text and data it announces fit the address space (the destination
// sizes its buffers from them).
func DecodeStreamHello(raw []byte) (*StreamHello, error) {
	r := &reader{buf: raw}
	if r.u16() != StreamMagic {
		if r.err != nil {
			return nil, r.err
		}
		return nil, ErrBadMagic
	}
	h := &StreamHello{}
	h.PID = r.u32()
	if b := r.take(1); b != nil {
		h.ISA = vm.Level(b[0])
	}
	h.Entry = r.u32()
	h.TextLen = r.u32()
	h.DataLen = r.u32()
	h.Txn = r.u32()
	h.Source = r.str()
	if r.err != nil {
		return nil, r.err
	}
	if uint64(h.TextLen)+uint64(h.DataLen) > vm.StackTop {
		return nil, ErrBadGeometry
	}
	return h, nil
}

// pg reads a page number, rejecting one outside the address space: the
// assembler keys its page map by it.
func (r *reader) pg() uint32 {
	pg := r.u32()
	if r.err == nil && pg >= vm.NumPages {
		r.err = ErrBadGeometry
	}
	return pg
}

// EncodeStreamStatus is the 4-byte close response: the restart status on
// the destination (0 on success).
func EncodeStreamStatus(status int) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(int32(status)))
}

// EncodeStreamStatusPID is the 8-byte close response: the restart status
// plus the pid the restored copy runs under (0 when unknown or failed).
// Decoders accept both forms, so sinks may keep answering 4 bytes.
func EncodeStreamStatusPID(status, pid int) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(int32(status)))
	return binary.BigEndian.AppendUint32(b, uint32(pid))
}

// DecodeStreamStatus parses a close response (either length); anything
// malformed is a generic failure.
func DecodeStreamStatus(raw []byte) int {
	if len(raw) != 4 && len(raw) != 8 {
		return -1
	}
	return int(int32(binary.BigEndian.Uint32(raw)))
}

// DecodeStreamStatusPID extracts the restored pid from an 8-byte close
// response (0 for the 4-byte form or anything malformed).
func DecodeStreamStatusPID(raw []byte) int {
	if len(raw) != 8 {
		return 0
	}
	return int(binary.BigEndian.Uint32(raw[4:]))
}

// recPool recycles per-record encode buffers: a pre-copy round used to
// allocate one slice per record shipped. Pointers to slices so Put does
// not allocate; the capacity fits the largest common record (a text
// chunk), and anything bigger grows its pooled buffer once and keeps it.
var recPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 9+TextChunk)
	return &b
}}

func recBufGet() *[]byte  { return recPool.Get().(*[]byte) }
func recBufPut(b *[]byte) { recPool.Put(b) }

func appendTextRec(b []byte, off uint32, data []byte) []byte {
	b = append(b, RecText)
	b = binary.BigEndian.AppendUint32(b, off)
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

func appendPageRec(b []byte, pg uint32, data []byte) []byte {
	b = append(b, RecPage)
	b = binary.BigEndian.AppendUint32(b, pg)
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

func appendPageZeroRec(b []byte, pg uint32) []byte {
	b = append(b, RecPageZero)
	return binary.BigEndian.AppendUint32(b, pg)
}

// specRef is one queued speculative ref awaiting the end-of-round batch
// flush: the page number and the content hash the summary matched.
type specRef struct {
	pg uint32
	h  uint64
}

// specBatchMax bounds the refs one RecPageStoreRefBatch carries, sized so
// the encoded record (5-byte header + 12 bytes per ref) still fits the
// pooled record buffer without growing it.
const specBatchMax = (9 + TextChunk - 5) / 12

func appendPageLZRec(b []byte, pg uint32, frame []byte) []byte {
	b = append(b, RecPageLZ)
	b = binary.BigEndian.AppendUint32(b, pg)
	b = binary.BigEndian.AppendUint32(b, uint32(len(frame)))
	return append(b, frame...)
}

func encodeTextRec(off uint32, data []byte) []byte { return appendTextRec(nil, off, data) }

func encodePageRec(pg uint32, data []byte) []byte { return appendPageRec(nil, pg, data) }

func encodeMetaRec(stackLen int, filesRaw, sfRaw []byte) []byte {
	b := make([]byte, 0, 13+len(filesRaw)+len(sfRaw))
	b = append(b, RecMeta)
	b = binary.BigEndian.AppendUint32(b, uint32(stackLen))
	b = binary.BigEndian.AppendUint32(b, uint32(len(filesRaw)))
	b = append(b, filesRaw...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(sfRaw)))
	return append(b, sfRaw...)
}

// CommitRecord is the two-phase-commit trailer of a streaming image: the
// source's statement, sent with the victim frozen, of what a complete
// transfer contains. The destination refuses to spool (phase two) unless a
// commit record arrived and matches what it assembled — a stream that dies
// early can never produce a half-restored process.
type CommitRecord struct {
	Txn       uint32 // migration transaction id (matches the hello)
	PID       uint32
	TextLen   uint32 // total text bytes shipped
	PageCount uint32 // distinct data/stack pages shipped
	StackLen  uint32 // live stack bytes at freeze time
}

// Encode serializes a commit record, leading type byte included.
func (c *CommitRecord) Encode() []byte {
	b := make([]byte, 0, 21)
	b = append(b, RecCommit)
	b = binary.BigEndian.AppendUint32(b, c.Txn)
	b = binary.BigEndian.AppendUint32(b, c.PID)
	b = binary.BigEndian.AppendUint32(b, c.TextLen)
	b = binary.BigEndian.AppendUint32(b, c.PageCount)
	b = binary.BigEndian.AppendUint32(b, c.StackLen)
	return b
}

// DecodeCommit parses a commit record (leading type byte included),
// rejecting short input and trailing garbage.
func DecodeCommit(raw []byte) (*CommitRecord, error) {
	if len(raw) < 1 || raw[0] != RecCommit {
		return nil, ErrBadMagic
	}
	r := &reader{buf: raw[1:]}
	c := &CommitRecord{
		Txn:       r.u32(),
		PID:       r.u32(),
		TextLen:   r.u32(),
		PageCount: r.u32(),
		StackLen:  r.u32(),
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, ErrTruncated
	}
	return c, nil
}

// --- source side ------------------------------------------------------------

// StreamSession is the source-side state of one streaming migration: the
// open stream plus what has been shipped so far. The orchestrator (migd)
// drives pre-copy rounds with SendRound, then arms the session and posts
// SIGDUMP; the dump hook sends the final delta and metadata with the
// process frozen.
type StreamSession struct {
	Stream *netsim.Stream
	Txn    uint32 // migration transaction id, echoed in the commit record

	// Checkpoint switches the session from migration to delta-checkpoint
	// mode (the ha guardian): a successful final round resumes the victim
	// in place — with dirty tracking still armed, so the next checkpoint
	// ships only the delta — instead of reaping it, and file paths are
	// recorded as the source sees them rather than rewritten through
	// /n/<source>, because a checkpoint is restarted only after the source
	// is dead and its NFS export with it.
	Checkpoint bool

	// Resolve, when set, is consulted after a transfer failure with the
	// victim frozen: ask the destination (with its own retries) whether
	// the restart actually happened despite the lost answer. It returns 0
	// for a confirmed commit; anything else — including "unreachable" —
	// aborts, which is safe because a destination that cannot confirm its
	// copy either never completed it or crashed with it.
	Resolve func(t *sim.Task) int

	// Wire selects the page encoding policy. The zero value is WireElideLZ,
	// so dedup, zero-page elision and compression are on unless a caller
	// explicitly asks for raw.
	Wire WireMode

	// Store, when set, is the source host's own page store: every hashed
	// page that ships (by any encoding except zero) is inserted, so pages
	// this host sends once are elidable by later sessions from the same
	// host — the source half of the cross-migration dedup.
	Store *PageStore

	// Remote, when set, is the destination host's advertised store summary.
	// A page the summary claims the destination holds ships as a 12-byte
	// speculative ref in a RecPageStoreRefBatch; the summary is a bloom
	// filter, so false positives are expected and repaired by the
	// store-NACK poll at the end of each round — correctness never depends
	// on the filter.
	Remote *StoreSummary

	// NewPID is the pid the restored copy runs under on the destination,
	// decoded from an 8-byte close response (0 when the sink answered the
	// legacy 4-byte form or the transfer failed).
	NewPID int

	textSent bool
	fullSent bool
	// shipped holds every page this session has shipped, with the content
	// hash it last shipped with (0 under WireRaw, which hashes nothing).
	// Its length is the commit record's PageCount. A dirty page whose hash
	// still matches is not sent again (see sendPage). Lives and dies with
	// the session: guardd resyncs under a new generation with a fresh
	// session, and the buddy starts a fresh assembler on the generation
	// mismatch.
	shipped   map[uint32]uint64
	pgScratch []uint32  // reused dirty-page list
	pageBuf   []byte    // reused page-contents buffer
	lzBuf     []byte    // reused compression output buffer
	specRound int       // speculative refs shipped this round, pending the NACK poll
	specQueue []specRef // refs queued this round, flushed as batch records
	// cpuDebt accumulates per-page CPU costs (hashing, compression, store
	// inserts) between wire sends; each send — and the end of the round —
	// pays the whole debt in one Resource.Use. One scheduler round-trip
	// per record shipped instead of one per cost charged: on a contended
	// source CPU every Use can queue behind a full quantum, so a round
	// that elides hundreds of pages to refs must not pay hundreds of
	// queue waits for a few milliseconds of actual work.
	cpuDebt sim.Duration

	WireBytes int64 // payload bytes handed to the stream
	Rounds    int   // SendRound calls so far (including the final one)
	Status    int   // destination restart status, set after the final round
	Err       error // transfer failure, set instead of Status

	// Wire-efficiency accounting: how each shipped page was encoded, and
	// how many bytes the encoding saved against a raw RecPage. PagesRef
	// counts dirty pages left unsent because their contents had not
	// changed since this session shipped them (the registry keeps the name
	// stream.pages_ref); each saves a whole raw RecPage. PagesSpec counts
	// speculative store refs; SpecNacks counts the ones the destination
	// bounced for resend (false positives and evictions).
	PagesRaw, PagesZero, PagesRef, PagesLZ int
	PagesSpec, SpecNacks                   int
	SavedBytes                             int64

	// Settled flips once the final round has decided the outcome either
	// way; DoneQ wakes the orchestrator waiting on it (the victim itself
	// may resume rather than exit, so waiting on its ExitQ is not enough).
	Settled bool
	DoneQ   sim.Queue

	// Obs, when set, mirrors the session's accounting into registry
	// counters as records ship. Pre-resolved pointers only — attaching it
	// adds no allocations to the steady-state send path (the A10 table and
	// BenchmarkAssembler hold this to ≤2 allocs/round either way).
	Obs *StreamObs
}

// StreamObs is the registry-side accounting of stream transfers: records
// and bytes by outcome, pages by encoding. One per host scope; every
// session the host sources feeds the same counters.
type StreamObs struct {
	Recs       *obs.Counter // records shipped successfully
	Resends    *obs.Counter // sends repeated after a drop fault
	WireBytes  *obs.Counter // payload bytes handed to the stream
	SavedBytes *obs.Counter // bytes the wire encodings elided
	PagesRaw   *obs.Counter
	PagesZero  *obs.Counter
	PagesRef   *obs.Counter // unchanged dirty pages not sent again
	PagesLZ    *obs.Counter
	PagesSpec  *obs.Counter // speculative cross-session store refs shipped
	SpecNacks  *obs.Counter // speculative refs bounced for resend
}

// NewStreamObs resolves the stream counters under one host scope.
func NewStreamObs(s *obs.Scope) *StreamObs {
	return &StreamObs{
		Recs:       s.Counter("stream.records"),
		Resends:    s.Counter("stream.resends"),
		WireBytes:  s.Counter("stream.wire_bytes"),
		SavedBytes: s.Counter("stream.saved_bytes"),
		PagesRaw:   s.Counter("stream.pages_raw"),
		PagesZero:  s.Counter("stream.pages_zero"),
		PagesRef:   s.Counter("stream.pages_ref"),
		PagesLZ:    s.Counter("stream.pages_lz"),
		PagesSpec:  s.Counter("stream.pages_spec"),
		SpecNacks:  s.Counter("stream.spec_nacks"),
	}
}

// streamSendRetries bounds how often one lost record is resent before the
// transfer gives up. Records are idempotent on the assembler, so resending
// is always safe; at a 20% drop rate eight retries leave a per-record
// failure probability of ~2.6e-6.
const streamSendRetries = 8

// sendRec ships one record, retrying records lost to drop faults.
func (s *StreamSession) sendRec(t *sim.Task, rec []byte) error {
	var err error
	for i := 0; i <= streamSendRetries; i++ {
		if i > 0 && s.Obs != nil {
			s.Obs.Resends.Inc()
		}
		err = s.Stream.Send(t, rec)
		if err != errno.ETIMEDOUT {
			break
		}
	}
	if err != nil {
		return err
	}
	s.WireBytes += int64(len(rec))
	if s.Obs != nil {
		s.Obs.Recs.Inc()
		s.Obs.WireBytes.Add(int64(len(rec)))
	}
	return nil
}

// SendRound ships one copy round: the text (first round only), then either
// the full set of image pages (until a full set has been sent once) or the
// pages dirtied since the previous round. Page contents are read at send
// time, and the dirty set is cleared at the start of the round, so a page
// re-dirtied mid-round is conservatively resent next round — the standard
// pre-copy invariant. charge receives the CPU cost of each scan and copy
// (the caller decides which clock it bills: the daemon's task during
// pre-copy, the dying process's system time during the final round).
func (s *StreamSession) SendRound(t *sim.Task, cpu *vm.CPU, costs kernel.Costs, charge func(sim.Duration)) error {
	if s.shipped == nil {
		s.shipped = map[uint32]uint64{}
	}
	send := func(rec []byte) error {
		s.cpuDebt += costs.StreamChunkBase + sim.Duration(len(rec))*costs.StreamPerByte
		charge(s.cpuDebt)
		s.cpuDebt = 0
		return s.sendRec(t, rec)
	}
	if !s.textSent {
		buf := recBufGet()
		for off := 0; off < len(cpu.Text); off += TextChunk {
			end := off + TextChunk
			if end > len(cpu.Text) {
				end = len(cpu.Text)
			}
			rec := appendTextRec((*buf)[:0], uint32(off), cpu.Text[off:end])
			*buf = rec
			if err := send(rec); err != nil {
				recBufPut(buf)
				return err
			}
		}
		recBufPut(buf)
		s.textSent = true
	}
	var pages []uint32
	if !s.fullSent {
		pages = cpu.ImagePages()
		s.fullSent = true
	} else {
		s.pgScratch = cpu.AppendDirtyPages(s.pgScratch[:0])
		pages = s.pgScratch
	}
	if cpu.DirtyTracking() {
		cpu.ClearDirty()
		s.cpuDebt += sim.Duration(len(pages)) * costs.DirtyScanPerPage
	}
	if s.pageBuf == nil {
		s.pageBuf = make([]byte, vm.PageSize)
	}
	for _, pg := range pages {
		cpu.PageDataInto(pg, s.pageBuf)
		if err := s.sendPage(pg, s.pageBuf, costs, send, true); err != nil {
			return err
		}
	}
	if err := s.flushSpecRefs(send); err != nil {
		return err
	}
	if s.specRound > 0 {
		if err := s.resolveNacks(t, cpu, costs, charge, send); err != nil {
			return err
		}
	}
	if s.cpuDebt > 0 {
		// A round whose tail elided every page (nothing left to send) still
		// owes its scan and hash time.
		charge(s.cpuDebt)
		s.cpuDebt = 0
	}
	s.Rounds++
	return nil
}

// flushSpecRefs ships the round's queued speculative refs as
// RecPageStoreRefBatch records, specBatchMax refs apiece. Runs before the
// NACK poll (the destination must have seen every ref it is asked about)
// and reuses the queue's storage across rounds, so the steady-state send
// round stays allocation-free.
func (s *StreamSession) flushSpecRefs(send func([]byte) error) error {
	for off := 0; off < len(s.specQueue); off += specBatchMax {
		end := off + specBatchMax
		if end > len(s.specQueue) {
			end = len(s.specQueue)
		}
		batch := s.specQueue[off:end]
		bp := recBufGet()
		b := (*bp)[:0]
		b = append(b, RecPageStoreRefBatch)
		b = binary.BigEndian.AppendUint32(b, uint32(len(batch)))
		for _, ref := range batch {
			b = binary.BigEndian.AppendUint32(b, ref.pg)
			b = binary.BigEndian.AppendUint64(b, ref.h)
		}
		*bp = b
		err := send(b)
		if err == nil {
			saved := len(batch)*rawPageRecLen - len(b)
			s.SavedBytes += int64(saved)
			s.Stream.CountElided(saved)
			if s.Obs != nil {
				s.Obs.SavedBytes.Add(int64(saved))
			}
		}
		recBufPut(bp)
		if err != nil {
			return err
		}
	}
	s.specQueue = s.specQueue[:0]
	return nil
}

// storeNackReq is the one-byte Sync query every NACK poll sends; a package
// constant so polling allocates nothing.
var storeNackReq = []byte{RecStoreNack}

// resolveNacks closes out a round that shipped speculative store refs: ask
// the destination which refs its store could not satisfy and resend those
// pages with refs disabled (current contents, re-read — so a page dirtied
// since its speculative ref simply ships its newest bytes, and the next
// round's dirty scan re-sends it again, preserving the pre-copy
// invariant). Runs before the round is counted, so a frozen-victim final
// round is not complete until every speculative ref is resolved.
func (s *StreamSession) resolveNacks(t *sim.Task, cpu *vm.CPU, costs kernel.Costs, charge func(sim.Duration), send func([]byte) error) error {
	var resp []byte
	var err error
	for i := 0; i <= streamSendRetries; i++ {
		if i > 0 && s.Obs != nil {
			s.Obs.Resends.Inc()
		}
		s.cpuDebt += costs.StreamChunkBase
		charge(s.cpuDebt)
		s.cpuDebt = 0
		resp, err = s.Stream.Sync(t, storeNackReq)
		if err != errno.ETIMEDOUT {
			break
		}
	}
	if err != nil {
		return err
	}
	s.specRound = 0
	s.WireBytes += int64(len(storeNackReq) + len(resp))
	if s.Obs != nil {
		s.Obs.WireBytes.Add(int64(len(storeNackReq) + len(resp)))
	}
	nacks, err := DecodeStoreNacks(resp)
	if err != nil {
		return err
	}
	if len(nacks) == 0 {
		return nil
	}
	s.SpecNacks += len(nacks)
	if s.Obs != nil {
		s.Obs.SpecNacks.Add(int64(len(nacks)))
	}
	for _, pg := range nacks {
		cpu.PageDataInto(pg, s.pageBuf)
		if err := s.sendPage(pg, s.pageBuf, costs, send, false); err != nil {
			return err
		}
	}
	return nil
}

// rawPageRecLen is the wire size of a full RecPage: type byte, two u32
// header words and the page contents — the yardstick SavedBytes and the
// netsim elision counters measure against.
const rawPageRecLen = 9 + vm.PageSize

// sendPage encodes one page under the session's wire mode and ships it,
// recording it in shipped only after a successful send. A page whose hash
// equals the one it last shipped with this session is not sent again: a
// stream delivers each record in order or fails, a lost record is either
// resent (sendRec) or kills the round, and a killed round ends the session
// on both sides (the migration aborts; guardd resyncs under a new
// generation with a fresh session and a fresh assembler). So the
// destination's page map already holds exactly those bytes.
//
// refsOK gates that elision and speculative refs. The NACK-resend path
// passes false so a bounced speculative ref always resolves to actual
// bytes (zero, LZ or raw), even when its hash matches shipped.
func (s *StreamSession) sendPage(pg uint32, data []byte, costs kernel.Costs, send func([]byte) error, refsOK bool) error {
	var h uint64
	hashed := s.Wire != WireRaw
	if hashed {
		s.cpuDebt += costs.PageHashCost
		h = vm.HashPage(data)
		if prev, ok := s.shipped[pg]; refsOK && ok && prev == h {
			s.PagesRef++
			s.SavedBytes += rawPageRecLen
			s.Stream.CountElided(rawPageRecLen)
			if s.Obs != nil {
				s.Obs.PagesRef.Inc()
				s.Obs.SavedBytes.Add(rawPageRecLen)
			}
			return nil
		}
	}
	zero := hashed && vm.IsZeroPage(data)
	if refsOK && hashed && !zero && s.Remote != nil && s.Remote.MayContain(h) {
		// The destination's store summary claims it holds these bytes from
		// an earlier session. Speculative: the end-of-round NACK poll
		// repairs false positives, so a wrong filter costs a resend, never
		// correctness. The ref is queued, not sent — the round flushes the
		// queue as RecPageStoreRefBatch records, so a round that elides
		// hundreds of pages pays a couple of record costs rather than
		// hundreds. Recording it as shipped before the flush is safe: a
		// failed flush kills the round, and with it the session, and a
		// bounced ref is resent before the round ends.
		s.specQueue = append(s.specQueue, specRef{pg: pg, h: h})
		s.specRound++
		s.PagesSpec++
		s.shipped[pg] = h
		if s.Store != nil {
			s.cpuDebt += costs.StorePageCost
			s.Store.Insert(h, data)
		}
		if s.Obs != nil {
			s.Obs.PagesSpec.Inc()
		}
		return nil
	}
	bp := recBufGet()
	defer recBufPut(bp)
	b := (*bp)[:0]
	var kind *int
	switch {
	case zero:
		b = appendPageZeroRec(b, pg)
		kind = &s.PagesZero
	case s.Wire == WireElideLZ:
		s.cpuDebt += costs.LZPageCost
		s.lzBuf = AppendLZ(s.lzBuf[:0], data)
		if len(s.lzBuf) < vm.PageSize {
			b = appendPageLZRec(b, pg, s.lzBuf)
			kind = &s.PagesLZ
		} else {
			b = appendPageRec(b, pg, data)
			kind = &s.PagesRaw
		}
	default:
		b = appendPageRec(b, pg, data)
		kind = &s.PagesRaw
	}
	*bp = b
	if err := send(b); err != nil {
		return err
	}
	*kind++
	s.shipped[pg] = h
	if hashed && !zero && s.Store != nil {
		// Source-side insert: this host has now shipped these bytes, so a
		// later session from here can elide them when a destination's
		// summary says so. Zero pages stay out — RecPageZero is cheaper
		// than any ref.
		s.cpuDebt += costs.StorePageCost
		s.Store.Insert(h, data)
	}
	saved := rawPageRecLen - len(b)
	if saved > 0 {
		s.SavedBytes += int64(saved)
		s.Stream.CountElided(saved)
	}
	if s.Obs != nil {
		// kind points into the session's own tallies; mirror it into the
		// matching registry counter without re-deciding the encoding.
		switch kind {
		case &s.PagesZero:
			s.Obs.PagesZero.Inc()
		case &s.PagesLZ:
			s.Obs.PagesLZ.Inc()
		default:
			s.Obs.PagesRaw.Inc()
		}
		if saved > 0 {
			s.Obs.SavedBytes.Add(int64(saved))
		}
	}
	return nil
}

// StreamStats snapshots a session's transfer accounting for callers that
// outlive it (migd records the last migration's stats per machine).
type StreamStats struct {
	Rounds                                 int
	WireBytes, SavedBytes                  int64
	PagesRaw, PagesZero, PagesRef, PagesLZ int
	PagesSpec, SpecNacks                   int
}

// Stats returns the session's current accounting.
func (s *StreamSession) Stats() StreamStats {
	return StreamStats{
		Rounds: s.Rounds, WireBytes: s.WireBytes, SavedBytes: s.SavedBytes,
		PagesRaw: s.PagesRaw, PagesZero: s.PagesZero,
		PagesRef: s.PagesRef, PagesLZ: s.PagesLZ,
		PagesSpec: s.PagesSpec, SpecNacks: s.SpecNacks,
	}
}

// CloseSynthetic finishes a session whose rounds were driven directly by a
// test or experiment harness rather than the SIGDUMP dump hook: ship a
// minimal metadata record (empty file table, the CPU's live stack and
// registers), then the commit trailer, then close the stream, returning
// the destination's decoded status. pid must match the hello the stream
// was opened with, or the destination's commit gate will refuse to spool.
func (s *StreamSession) CloseSynthetic(t *sim.Task, cpu *vm.CPU, pid uint32, costs kernel.Costs, charge func(sim.Duration)) (int, error) {
	sf := &StackFile{Regs: cpu.Snapshot(), OldPID: pid}
	stackLen := len(cpu.StackImage())
	ff := &FilesFile{}
	meta := encodeMetaRec(stackLen, ff.Encode(), sf.Encode())
	charge(costs.StreamChunkBase + sim.Duration(len(meta))*costs.StreamPerByte)
	if err := s.sendRec(t, meta); err != nil {
		return -1, err
	}
	commit := &CommitRecord{
		Txn:       s.Txn,
		PID:       pid,
		TextLen:   uint32(len(cpu.Text)),
		PageCount: uint32(len(s.shipped)),
		StackLen:  uint32(stackLen),
	}
	rec := commit.Encode()
	charge(costs.StreamChunkBase + sim.Duration(len(rec))*costs.StreamPerByte)
	if err := s.sendRec(t, rec); err != nil {
		return -1, err
	}
	resp, err := s.Stream.Close(t)
	if err != nil {
		return -1, err
	}
	s.Status = DecodeStreamStatus(resp)
	s.NewPID = DecodeStreamStatusPID(resp)
	return s.Status, nil
}

// Armed streaming sessions, keyed by machine and pid: when the SIGDUMP
// dump action finds one, it streams the final delta instead of writing the
// dump files. Global (not per-machine) so the kernel package needs no
// knowledge of streaming; the mutex covers concurrent test engines.
var (
	streamMu sync.Mutex
	armed    = map[*kernel.Machine]map[int]*StreamSession{}
)

// ArmStreamDump registers sess so that the next SIGDUMP dump of pid on m
// completes the streaming migration.
func ArmStreamDump(m *kernel.Machine, pid int, sess *StreamSession) {
	streamMu.Lock()
	defer streamMu.Unlock()
	if armed[m] == nil {
		armed[m] = map[int]*StreamSession{}
	}
	armed[m][pid] = sess
}

// DisarmStreamDump removes a previously armed session (e.g. after a
// pre-copy failure, so a later plain dumpproc behaves normally).
func DisarmStreamDump(m *kernel.Machine, pid int) {
	streamMu.Lock()
	defer streamMu.Unlock()
	delete(armed[m], pid)
}

func takeStreamSession(m *kernel.Machine, pid int) *StreamSession {
	streamMu.Lock()
	defer streamMu.Unlock()
	sess := armed[m][pid]
	if sess != nil {
		delete(armed[m], pid)
	}
	return sess
}

// streamDumpFinal is the streaming counterpart of Dump: with the process
// frozen in the signal path, ship the last dirty-page delta, the
// files/stack metadata and the commit record, then close the stream and
// collect the remote restart status. Runs in the (possibly dying)
// process's context, so its CPU time is the migration's freeze cost.
//
// It returns 0 only when the destination confirmed a successful restart
// (the SIGDUMP path then reaps the original) and ERESTART on every
// failure: the transfer died, the restart failed, or the outcome could
// not be confirmed and Resolve did not report a commit — the victim then
// resumes exactly where it was.
func streamDumpFinal(p *kernel.Proc, sess *StreamSession) errno.Errno {
	t := p.Task()
	sp := p.M.Trace.Child(sess.Txn, "freeze", p.M.Name, p.PID, t.Now())
	e := streamDumpSend(p, sess)
	switch {
	case sess.Err != nil:
		sp.EndDetail(t.Now(), "err="+sess.Err.Error())
	case sess.Checkpoint:
		sp.EndDetail(t.Now(), "checkpoint committed")
	case sess.Status == 0:
		sp.EndDetail(t.Now(), "committed")
	default:
		sp.EndDetail(t.Now(), fmt.Sprintf("restart status %d", sess.Status))
	}
	sess.Settled = true
	sess.DoneQ.WakeAll()
	return e
}

func streamDumpSend(p *kernel.Proc, sess *StreamSession) errno.Errno {
	m := p.M
	t := p.Task()
	// abort resolves a transfer failure with the victim frozen: unless
	// the destination confirms the migration actually committed (our view
	// of the close response may simply have been lost), resume the victim
	// with dirty tracking disarmed and the stream torn down so the
	// destination discards its partial spool.
	abort := func(e errno.Errno) errno.Errno {
		if sess.Resolve != nil {
			if sess.Resolve(t) == 0 {
				sess.Status = 0
				sess.Err = nil
				return 0
			}
		}
		sess.Err = e
		sess.Status = -1
		if p.VM != nil {
			p.VM.SetDirtyTracking(false)
		}
		sess.Stream.Abort(t)
		return errno.ERESTART
	}
	if p.VM == nil {
		return abort(errno.ENOEXEC)
	}
	if !m.Config.TrackNames {
		return abort(errno.EINVAL)
	}

	// Final copy round: only pages dirtied since the last pre-copy round
	// (or the whole image, for a streaming stop-and-copy with no rounds).
	dsp := m.Trace.Child(sess.Txn, "final-delta", m.Name, p.PID, t.Now())
	wb0 := sess.WireBytes
	if err := sess.SendRound(t, p.VM, m.Costs, p.ChargeSys); err != nil {
		dsp.EndDetail(t.Now(), "err="+err.Error())
		return abort(errno.Of(err))
	}
	dsp.EndDetail(t.Now(), fmt.Sprintf("%d B", sess.WireBytes-wb0))

	// files file, with the path fixups dumpproc applies at user level
	// (§4.4) done lexically in the kernel: terminal-backed files become
	// /dev/tty, everything else is reached back through /n/<source>.
	// Unlike dumpproc we cannot chase symlinks here; lexical names are
	// what §5.1 tracking recorded anyway.
	ff := buildFilesFile(p)
	for i, f := range p.FDs {
		if f != nil && f.Kind == kernel.FileDevice && kernel.IsTerminalDevice(f.Dev) {
			ff.FDs[i] = FDEntry{Kind: FDFile, Path: "/dev/tty", Flags: ff.FDs[i].Flags}
		}
	}
	if !sess.Checkpoint {
		prefix := "/n/" + m.Name
		remote := func(path string) string {
			if path == "" || strings.HasPrefix(path, "/n/") {
				return path
			}
			return prefix + path
		}
		ff.CWD = remote(ff.CWD)
		for i := range ff.FDs {
			if ff.FDs[i].Kind == FDFile && ff.FDs[i].Path != "/dev/tty" {
				ff.FDs[i].Path = remote(ff.FDs[i].Path)
			}
		}
	}

	// stack file metadata: registers post-rewind, credentials, signal
	// dispositions. The stack bytes themselves traveled as pages; only
	// the length goes here.
	sf := &StackFile{
		Creds:      p.Creds,
		Regs:       p.VM.Snapshot(),
		SigActions: p.SigActions,
		OldPID:     uint32(p.PID),
	}
	stackLen := len(p.VM.StackImage())

	meta := encodeMetaRec(stackLen, ff.Encode(), sf.Encode())
	p.ChargeSys(m.Costs.StreamChunkBase + sim.Duration(len(meta))*m.Costs.StreamPerByte)
	if err := sess.sendRec(t, meta); err != nil {
		return abort(errno.Of(err))
	}

	// Phase one of the commit: tell the destination exactly what a
	// complete image contains. It refuses to spool without this.
	commit := &CommitRecord{
		Txn:       sess.Txn,
		PID:       uint32(p.PID),
		TextLen:   uint32(len(p.VM.Text)),
		PageCount: uint32(len(sess.shipped)),
		StackLen:  uint32(stackLen),
	}
	rec := commit.Encode()
	p.ChargeSys(m.Costs.StreamChunkBase + sim.Duration(len(rec))*m.Costs.StreamPerByte)
	if err := sess.sendRec(t, rec); err != nil {
		return abort(errno.Of(err))
	}

	// Phase two: Close runs the destination's spool-and-restart and ships
	// the verdict back. A lost close aborts the sink server-side; a lost
	// response leaves the outcome to Resolve.
	csp := m.Trace.Child(sess.Txn, "commit", m.Name, p.PID, t.Now())
	resp, err := sess.Stream.Close(t)
	if err != nil {
		csp.EndDetail(t.Now(), "err="+err.Error())
		return abort(errno.Of(err))
	}
	sess.Status = DecodeStreamStatus(resp)
	sess.NewPID = DecodeStreamStatusPID(resp)
	csp.EndDetail(t.Now(), fmt.Sprintf("status %d", sess.Status))
	if sess.Status != 0 {
		// The destination ran to a verdict and it was "failed": nothing
		// to resolve, resume the victim.
		sess.Err = errno.EIO
		p.VM.SetDirtyTracking(false)
		return errno.ERESTART
	}
	if sess.Checkpoint {
		// Checkpoint committed on the buddy; the victim resumes in place
		// and keeps accumulating dirty pages for the next delta.
		return errno.ERESTART
	}
	return 0
}

// --- destination side -------------------------------------------------------

// ImageAssembler rebuilds the three §4.3 dump files from stream records on
// the destination. Later records overwrite earlier ones, so re-sent pages
// simply land on top of their stale copies.
//
// A one-shot destination (migd) builds the files straight from the
// assembler with Spool. A long-lived one (the guardian buddy, which
// applies delta after delta to one assembler) takes a CommittedImage
// snapshot with Commit at every commit and builds the files only when it
// needs them. After a Commit the assembler is copy-on-write: a record that
// overwrites a page or the text the newest snapshot still shares first
// gets a fresh buffer, so no later record — committed or torn — can reach
// into a committed image.
type ImageAssembler struct {
	hello    StreamHello
	text     []byte
	textGot  int
	pages    map[uint32][]byte
	stackLen int
	filesRaw []byte
	sfRaw    []byte
	metaSeen bool
	commit   *CommitRecord
	// frozen is the page map of the newest snapshot: a buffer in pages
	// that is also frozen[pg] is shared and must not be written in place.
	// Older snapshots need no check — every buffer they share with the
	// assembler the newest one shares too.
	frozen     map[uint32][]byte
	textFrozen bool // the newest snapshot shares text
	// store, when set, is the destination host's page store: speculative
	// refs resolve against it, and every verified page that arrives by
	// value feeds it. Outlives the assembler, so it is the one path by
	// which bytes shipped in one session serve another.
	store *PageStore
	// specMiss is the set of pages whose speculative refs the store could
	// not satisfy, reported on the next RecStoreNack poll and cleared as
	// their bytes arrive. Committed refuses a spool while any remain: a
	// missed ref for a page holding stale earlier-round bytes would pass
	// the PageCount check with wrong contents otherwise.
	specMiss map[uint32]struct{}
}

// SetStore attaches the host page store the assembler resolves speculative
// refs against and feeds verified pages into. Nil (the default) disables
// both: speculative refs all miss and are NACKed for resend.
func (a *ImageAssembler) SetStore(ps *PageStore) { a.store = ps }

// NewImageAssembler starts reassembly for one streaming migration.
func NewImageAssembler(helloRaw []byte) (*ImageAssembler, error) {
	h, err := DecodeStreamHello(helloRaw)
	if err != nil {
		return nil, err
	}
	return &ImageAssembler{
		hello: *h,
		text:  make([]byte, h.TextLen),
		pages: map[uint32][]byte{},
	}, nil
}

// page returns pg's storage for overwriting, allocating it zeroed on first
// touch or when the newest snapshot shares it (copy-on-write; the old
// bytes are not copied because every caller overwrites the whole page).
func (a *ImageAssembler) page(pg uint32) []byte {
	p := a.pages[pg]
	if f := a.frozen[pg]; p == nil || (f != nil && &f[0] == &p[0]) {
		p = make([]byte, vm.PageSize)
		a.pages[pg] = p
	}
	return p
}

// zeroPageHash is the content hash of an all-zero page.
var zeroPageHash = vm.HashPage(make([]byte, vm.PageSize))

// Hello returns the geometry the stream was opened with.
func (a *ImageAssembler) Hello() StreamHello { return a.hello }

// Apply consumes one stream record.
func (a *ImageAssembler) Apply(rec []byte) error {
	if len(rec) < 1 {
		return ErrTruncated
	}
	r := &reader{buf: rec[1:]}
	switch rec[0] {
	case RecText:
		off := r.u32()
		n := int(r.u32())
		data := r.take(n)
		if r.err != nil {
			return r.err
		}
		if int(off)+n > len(a.text) {
			return ErrTruncated
		}
		if a.textFrozen {
			a.text = append([]byte(nil), a.text...)
			a.textFrozen = false
		}
		copy(a.text[off:], data)
		a.textGot += n
	case RecPage:
		pg := r.pg()
		n := int(r.u32())
		data := r.take(n)
		if r.err != nil {
			return r.err
		}
		if n != vm.PageSize {
			return ErrTruncated
		}
		copy(a.page(pg), data)
		a.storeInsert(data)
		delete(a.specMiss, pg)
	case RecPageZero:
		pg := r.pg()
		if r.err != nil {
			return r.err
		}
		p := a.page(pg)
		for i := range p {
			p[i] = 0
		}
		delete(a.specMiss, pg)
	case RecPageStoreRefBatch:
		n := int(r.u32())
		if r.err != nil {
			return r.err
		}
		// Exactly n refs, nothing trailing: a short batch would silently
		// drop refs, a long one would smuggle undecoded bytes.
		if len(r.buf) != 12*n {
			return ErrTruncated
		}
		for i := 0; i < n; i++ {
			pg := r.pg()
			h := r.u64()
			if r.err != nil {
				return r.err
			}
			if err := a.applyStoreRef(pg, h); err != nil {
				return err
			}
		}
	case RecPageLZ:
		pg := r.pg()
		n := int(r.u32())
		frame := r.take(n)
		if r.err != nil {
			return r.err
		}
		// Decode straight into the stored page. A corrupt frame may leave
		// the page half-overwritten, but Committed never passes a torn
		// stream, and the page is a fresh buffer if a snapshot shares pg.
		p := a.page(pg)
		if err := DecompressLZInto(p, frame); err != nil {
			return err
		}
		a.storeInsert(p)
		delete(a.specMiss, pg)
	case RecMeta:
		stackLen := r.u32()
		filesRaw := append([]byte(nil), r.take(int(r.u32()))...)
		sfRaw := append([]byte(nil), r.take(int(r.u32()))...)
		if r.err != nil {
			return r.err
		}
		if stackLen > vm.StackTop {
			return ErrBadGeometry
		}
		a.stackLen, a.filesRaw, a.sfRaw = int(stackLen), filesRaw, sfRaw
		a.metaSeen = true
	case RecCommit:
		c, err := DecodeCommit(rec)
		if err != nil {
			return err
		}
		a.commit = c
	default:
		return ErrBadMagic
	}
	return nil
}

// storeInsert feeds one page that arrived by value into the host store
// (all-zero pages excepted: RecPageZero is cheaper than any ref, so
// storing them buys nothing). No-op without a store.
func (a *ImageAssembler) storeInsert(data []byte) {
	if a.store == nil {
		return
	}
	if h := vm.HashPage(data); h != zeroPageHash {
		a.store.Insert(h, data)
	}
}

// applyStoreRef resolves a speculative cross-session ref. Three outcomes:
// the store holds the bytes and the page lands; the store misses —
// recorded for the NACK poll, never an error, because the source only
// trusted a bloom filter; or the store entry is poisoned (re-verification
// mismatch), which fails the transfer loudly with ErrHashMismatch —
// restarting from silently wrong memory is the one outcome worse than not
// migrating at all.
func (a *ImageAssembler) applyStoreRef(pg uint32, h uint64) error {
	if a.store != nil {
		data, err := a.store.Acquire(h)
		if err != nil {
			return err
		}
		if data != nil {
			copy(a.page(pg), data)
			delete(a.specMiss, pg)
			return nil
		}
	}
	if a.specMiss == nil {
		a.specMiss = map[uint32]struct{}{}
	}
	a.specMiss[pg] = struct{}{}
	return nil
}

// EncodeStoreNacks serializes the pending speculative-ref misses as the
// RecStoreNack reply: u32 count, then the page numbers sorted ascending
// (map iteration order must not leak onto the wire — the engine is
// deterministic, the wire must be too).
func (a *ImageAssembler) EncodeStoreNacks() []byte {
	pages := make([]uint32, 0, len(a.specMiss))
	for pg := range a.specMiss {
		pages = append(pages, pg)
	}
	slices.Sort(pages)
	b := make([]byte, 0, 4+4*len(pages))
	b = binary.BigEndian.AppendUint32(b, uint32(len(pages)))
	for _, pg := range pages {
		b = binary.BigEndian.AppendUint32(b, pg)
	}
	return b
}

// DecodeStoreNacks parses a RecStoreNack reply back into the page list.
// The source re-reads and resends every page listed, so a page past the
// address space is rejected like one in any other record, and so is a
// list that is not strictly ascending (EncodeStoreNacks emits each missed
// page once, sorted).
func DecodeStoreNacks(raw []byte) ([]uint32, error) {
	r := &reader{buf: raw}
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 4*n {
		return nil, ErrTruncated
	}
	pages := make([]uint32, n)
	for i := range pages {
		pages[i] = r.pg()
		if r.err != nil {
			return nil, r.err
		}
		if i > 0 && pages[i] <= pages[i-1] {
			return nil, ErrBadGeometry
		}
	}
	return pages, nil
}

// SyncReply answers a Stream.Sync query against the assembler: the sink
// adapters (migd, guardd, tests) delegate their StreamSyncer.Sync here.
// Unknown queries answer nil, which the source's decoder rejects.
func (a *ImageAssembler) SyncReply(req []byte) []byte {
	if len(req) == 1 && req[0] == RecStoreNack {
		return a.EncodeStoreNacks()
	}
	return nil
}

// Committed reports whether a commit record has arrived and matches both
// the hello and what was actually assembled — the gate Commit and Spool
// enforce. Unresolved speculative refs block it: such a page may sit in
// a.pages with stale earlier-round bytes, which the PageCount check alone
// cannot tell from the real thing.
func (a *ImageAssembler) Committed() bool {
	c := a.commit
	return c != nil && a.metaSeen &&
		len(a.specMiss) == 0 &&
		c.Txn == a.hello.Txn &&
		c.PID == a.hello.PID &&
		c.TextLen == a.hello.TextLen &&
		int(c.TextLen) <= a.textGot &&
		int(c.PageCount) == len(a.pages) &&
		int(c.StackLen) == a.stackLen
}

// overlay copies the intersection of page (at pageBase) into dst (at
// dstBase in the same address space).
func overlay(dst []byte, dstBase uint32, page []byte, pageBase uint32) {
	lo, hi := dstBase, dstBase+uint32(len(dst))
	plo, phi := pageBase, pageBase+uint32(len(page))
	if plo > lo {
		lo = plo
	}
	if phi < hi {
		hi = phi
	}
	if lo >= hi {
		return
	}
	copy(dst[lo-dstBase:hi-dstBase], page[lo-pageBase:hi-pageBase])
}

// CommittedImage is an immutable snapshot of an assembler at a commit:
// everything needed to build the three dump files, which Spool does on
// demand. It shares page buffers with the assembler it came from; the
// assembler's copy-on-write keeps them unchanged.
type CommittedImage struct {
	hello    StreamHello
	text     []byte
	pages    map[uint32][]byte
	stackLen int
	filesRaw []byte
	sf       *StackFile // decoded sfRaw; Stack is filled in by Spool
}

// image runs every check a spool needs and returns the image as the
// assembler holds it now, aliasing its text and page map.
func (a *ImageAssembler) image() (*CommittedImage, error) {
	if !a.metaSeen {
		return nil, ErrTruncated
	}
	if a.textGot < len(a.text) {
		return nil, ErrTruncated
	}
	if !a.Committed() {
		// No commit record, or one disagreeing with what arrived: the
		// transfer never completed its first phase; refuse to build a
		// half image.
		return nil, ErrNotCommitted
	}
	sf, err := DecodeStack(a.sfRaw)
	if err != nil {
		return nil, err
	}
	return &CommittedImage{
		hello: a.hello, text: a.text, pages: a.pages,
		stackLen: a.stackLen, filesRaw: a.filesRaw, sf: sf,
	}, nil
}

// Commit checks the image exactly as Spool does and snapshots it: the page
// map is copied (the buffers are not), and from here on the assembler
// copies a shared buffer before overwriting it. A commit costs the map,
// not the image.
func (a *ImageAssembler) Commit() (*CommittedImage, error) {
	img, err := a.image()
	if err != nil {
		return nil, err
	}
	img.pages = maps.Clone(a.pages)
	a.frozen = img.pages
	a.textFrozen = true
	return img, nil
}

// Spool produces the three dump files — a.out, files, stack — exactly as a
// local SIGDUMP would have written them, ready to be spooled to /usr/tmp
// and restarted with no remote image reads. It builds straight from the
// assembler, for a destination that spools once and discards it.
func (a *ImageAssembler) Spool() (aoutRaw, filesRaw, stackRaw []byte, err error) {
	img, err := a.image()
	if err != nil {
		return nil, nil, nil, err
	}
	aoutRaw, filesRaw, stackRaw = img.Spool()
	return aoutRaw, filesRaw, stackRaw, nil
}

// Spool builds the image's three dump files.
func (c *CommittedImage) Spool() (aoutRaw, filesRaw, stackRaw []byte) {
	// Pages are absolute-addressed; carve the data segment and the stack
	// back out of them. Pages never sent are unmaterialized, i.e. zero.
	dataBase := vm.DataBase(int(c.hello.TextLen))
	data := make([]byte, c.hello.DataLen)
	stack := make([]byte, c.stackLen)
	stackBase := uint32(vm.StackTop - c.stackLen)
	for pg, contents := range c.pages {
		base := pg << vm.PageShift
		overlay(data, dataBase, contents, base)
		overlay(stack, stackBase, contents, base)
	}
	sf := *c.sf
	sf.Stack = stack

	exe := &aout.Exec{ISA: c.hello.ISA, Entry: c.hello.Entry, Text: c.text, Data: data}
	return exe.Encode(), c.filesRaw, sf.Encode()
}
