package core

import (
	"encoding/binary"
	"testing"

	"procmig/internal/aout"
)

// fuzzMaxImage bounds the text+data and stack sizes FuzzApply spools, and
// fuzzMaxCommits the snapshots it keeps, so one input stays cheap. The
// assembler's own limit (the address space) is pinned by
// TestAssemblerRejectsOutOfRangeGeometry.
const (
	fuzzMaxImage   = 256 << 10
	fuzzMaxCommits = 16
)

// checkpointLogs records real checkpoint streams in the FuzzApply frame
// format: one generation of a full image and two deltas, a resync that
// lands as speculative store-ref batches, and one against a flushed store
// that NACKs every ref and resends the pages.
func checkpointLogs(tb testing.TB) [][]byte {
	h := newCkptHarness(tb)
	h.checkpoint()
	h.dirty(1)
	h.checkpoint()
	h.dirty(2)
	h.checkpoint()
	gen1 := h.buddy.log

	h.buddy.log = nil
	h.newGeneration(h.buddy.store.Summary())
	h.checkpoint()
	h.dirty(3)
	h.checkpoint()
	gen2 := h.buddy.log
	if h.sess.PagesSpec == 0 {
		tb.Fatal("the resync shipped no speculative refs")
	}

	h.buddy.log = nil
	stale := h.buddy.store.Summary()
	h.buddy.store.Reset()
	h.newGeneration(stale)
	h.checkpoint()
	gen3 := h.buddy.log
	if h.sess.SpecNacks == 0 {
		tb.Fatal("the flushed-store generation bounced no refs")
	}

	all := append(append(append([]byte(nil), gen1...), gen2...), gen3...)
	return [][]byte{all, gen1, gen2, gen3, gen1[:len(gen1)/2]}
}

// FuzzApply feeds arbitrary operation logs — records, NACK polls, commits
// and generation bumps — to image assemblers sharing one page store. No
// input may panic; every Commit either fails or yields a snapshot whose
// files decode and match an eager Spool of the same commit; and no
// snapshot may change under anything applied after it. The seeds are
// kilobytes long and Go's input minimizer is quadratic, so run it with
// -fuzzminimizetime 0 (or a small budget) to keep the time for fuzzing.
func FuzzApply(f *testing.F) {
	for _, seed := range checkpointLogs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, log []byte) { replayLog(t, log) })
}

// TestGuardReplayCheckpointLogs: replaying the recorded checkpoint streams
// commits every checkpoint, so the fuzz seeds reach Commit and Spool.
func TestGuardReplayCheckpointLogs(t *testing.T) {
	if n := replayLog(t, checkpointLogs(t)[0]); n != 6 {
		t.Fatalf("replay committed %d snapshots, want 6", n)
	}
}

// replayLog runs one FuzzApply input, failing t on any broken property,
// and returns how many snapshots it committed.
func replayLog(t *testing.T, log []byte) int {
	store := NewPageStore(DefaultStoreBudget)
	var asm *ImageAssembler
	var snaps []*CommittedImage
	var files []spooled
	for len(log) >= 5 && len(snaps) < fuzzMaxCommits {
		op, n := log[0], binary.BigEndian.Uint32(log[1:])
		log = log[5:]
		if uint64(n) > uint64(len(log)) {
			break
		}
		payload := log[:n]
		log = log[n:]
		switch {
		case op == opHello:
			h, err := DecodeStreamHello(payload)
			if err != nil || h.TextLen+h.DataLen > fuzzMaxImage {
				asm = nil
				continue
			}
			if asm, err = NewImageAssembler(payload); err != nil {
				t.Fatalf("decodable hello refused: %v", err)
			}
			asm.SetStore(store)
		case asm == nil:
		case op == opApply:
			_ = asm.Apply(payload)
		case op == opSync:
			asm.SyncReply(payload)
		case op == opCommit:
			img, err := asm.Commit()
			if err == nil && img.stackLen > fuzzMaxImage {
				return len(snaps)
			}
			a, fl, s, spoolErr := asm.Spool()
			if (err == nil) != (spoolErr == nil) {
				t.Fatalf("Commit err %v but Spool err %v", err, spoolErr)
			}
			if err != nil {
				continue
			}
			got := spoolOf(img)
			if !got.equal(spooled{a, fl, s}) {
				t.Fatal("snapshot spools differently from the assembler it was taken of")
			}
			if _, err := aout.Decode(got.aout); err != nil {
				t.Fatalf("committed a.out does not decode: %v", err)
			}
			if _, err := DecodeStack(got.stack); err != nil {
				t.Fatalf("committed stack file does not decode: %v", err)
			}
			snaps, files = append(snaps, img), append(files, got)
		}
	}
	for k, img := range snaps {
		if !spoolOf(img).equal(files[k]) {
			t.Fatalf("snapshot %d changed under later records", k)
		}
	}
	return len(snaps)
}

func spoolOf(img *CommittedImage) spooled {
	a, f, s := img.Spool()
	return spooled{a, f, s}
}
