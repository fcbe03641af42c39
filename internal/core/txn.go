package core

import (
	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

// Classic-path migration transactions: a DumpHold armed before SIGDUMP
// makes the dump action park the victim frozen-but-alive after writing its
// dump files, instead of dying. The coordinator (migd's txmigrate handler)
// then drives the destination restart and resolves the hold: commit reaps
// the process, abort resumes it exactly where it was — the source survives
// every failure. The dump files are retained until the verdict and
// garbage-collected either way.

// Hold verdicts.
const (
	holdNone = iota
	holdCommit
	holdAbort
)

// DumpHold is one armed classic-path transaction.
type DumpHold struct {
	p       *kernel.Proc
	fired   bool        // the armed dump ran (the arm is spent)
	frozen  bool        // dump files written, victim parked
	dumpErr errno.Errno // the dump itself failed; victim resumed
	verdict int

	waitQ sim.Queue // the parked victim
	doneQ sim.Queue // the coordinator awaiting the freeze
}

// ArmDumpHold arms p's next SIGDUMP to freeze the process after its dump
// instead of killing it. A slot another caller has armed is left alone
// and EBUSY returned.
func ArmDumpHold(p *kernel.Proc) (*DumpHold, errno.Errno) {
	if p.ArmedDump != nil {
		return nil, errno.EBUSY
	}
	h := &DumpHold{p: p}
	p.ArmedDump = h.dump
	return h, 0
}

// dump is the armed SIGDUMP action: the plain dump, then park on success
// or resume on failure (a failed migration must not kill the process).
func (h *DumpHold) dump(p *kernel.Proc) errno.Errno {
	h.fired = true
	if e := Dump(p); e != 0 {
		return h.fail(e)
	}
	return h.park(p)
}

// DumpFailed reports the dump error, if the dump itself failed (the victim
// resumed on its own; there is nothing to commit).
func (h *DumpHold) DumpFailed() errno.Errno { return h.dumpErr }

// park runs in the victim's context at the end of a successful dump: wake
// the coordinator and sleep until the verdict. Commit lets the SIGDUMP
// path reap the process; abort resumes it.
func (h *DumpHold) park(p *kernel.Proc) errno.Errno {
	h.frozen = true
	h.doneQ.WakeAll()
	t := p.Task()
	for h.verdict == holdNone {
		t.Wait(&h.waitQ)
	}
	if h.verdict == holdCommit {
		return 0
	}
	return errno.ERESTART
}

// fail runs in the victim's context when the dump errored with the hold
// armed: record the error, wake the coordinator, and resume the victim
// (a failed migration must not kill the process).
func (h *DumpHold) fail(e errno.Errno) errno.Errno {
	h.frozen = false
	h.dumpErr = e
	h.doneQ.WakeAll()
	return errno.ERESTART
}

// AwaitFrozen blocks the coordinator until the victim is parked (true) or
// the dump failed / the process died some other way (false).
func (h *DumpHold) AwaitFrozen(t *sim.Task) bool {
	for !h.frozen && h.dumpErr == 0 {
		if h.p.State != kernel.ProcRunning {
			return false
		}
		t.WaitTimeout(&h.doneQ, 250*sim.Millisecond)
	}
	return h.frozen
}

// ResolveDumpHold delivers the verdict, wakes the victim, disarms a hold
// whose dump never ran (so a later plain dumpproc behaves classically; no
// other caller can have armed the slot over it),
// and garbage-collects the dump files (committed images have been read by
// the destination; aborted ones must not linger for a manual retry — the
// transaction owns them now). It is idempotent.
func ResolveDumpHold(h *DumpHold, commit bool) {
	if h.verdict == holdNone {
		if commit {
			h.verdict = holdCommit
		} else {
			h.verdict = holdAbort
		}
		h.waitQ.WakeAll()
	}
	if !h.fired {
		h.p.ArmedDump = nil
	}
	if h.frozen {
		aoutP, filesP, stackP := DumpPaths("", h.p.PID)
		for _, path := range []string{aoutP, filesP, stackP} {
			h.p.M.NS().Remove(path)
		}
	}
}
