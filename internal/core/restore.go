package core

import (
	"fmt"
	"strconv"

	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/tty"
	"procmig/internal/vm"
)

// One path brings a streamed image back to life for both destinations, the
// streaming-migration migd and the guardian buddy, as the paper's
// checkpointing reuses migration's dump and restart: an ImageSink
// reassembles the records, SpoolImage writes the three §4.3 dump files to
// /usr/tmp, and Spooled.Restart runs restart -p on them. The destinations
// differ only in their sink's Done. Both sources open with HelloFor and
// hand the frozen image over with DumpToStream.

// HelloFor builds the stream hello announcing p's image under txn.
func HelloFor(p *kernel.Proc, txn uint32) *StreamHello {
	return &StreamHello{
		PID:     uint32(p.PID),
		ISA:     vm.MinISA(p.VM.Text),
		Entry:   p.ExecEntry,
		TextLen: uint32(len(p.VM.Text)),
		DataLen: uint32(len(p.VM.Data)),
		Txn:     txn,
		Source:  p.M.Name,
	}
}

// DumpToStream arms p's streaming dump into sess and sends SIGDUMP as
// creds, disarming again if the signal is refused (that errno is
// returned). The dump hook settles the session as the final delta ships,
// so it then waits on the session, not on p's exit; settled is false when
// p stopped running before the transfer settled.
func DumpToStream(t *sim.Task, p *kernel.Proc, creds kernel.Creds, sess *StreamSession) (settled bool, e errno.Errno) {
	ArmStreamDump(p.M, p.PID, sess)
	if e := p.M.Kill(creds, p.PID, kernel.SIGDUMP); e != 0 {
		DisarmStreamDump(p.M, p.PID)
		return false, e
	}
	for !sess.Settled && p.State == kernel.ProcRunning {
		t.WaitTimeout(&sess.DoneQ, 250*sim.Millisecond)
	}
	return sess.Settled, 0
}

// ImageSink is the receive side of an image stream on machine M: every
// record is charged to M's CPU and applied to Asm, and the source's
// store-NACK poll is answered from Asm. The first record that fails to
// apply sticks in Err and the rest are dropped. Destinations embed it and
// add their own Done and Abort.
type ImageSink struct {
	M   *kernel.Machine
	Asm *ImageAssembler
	Err error
	// Pre-resolved receive-side counters: Chunk runs per record on the
	// steady-state path and must stay pointer arithmetic.
	recsIn, hashMism *obs.Counter
}

// NewImageSink binds a sink to m and asm.
func NewImageSink(m *kernel.Machine, asm *ImageAssembler) ImageSink {
	return ImageSink{
		M: m, Asm: asm,
		recsIn:   m.Obs.Counter("stream.records_in"),
		hashMism: m.Obs.Counter("stream.hash_mismatches"),
	}
}

// Chunk applies one record.
func (s *ImageSink) Chunk(t *sim.Task, rec []byte) {
	if s.Err != nil {
		return
	}
	if t != nil {
		s.M.CPU().Use(t, s.M.Costs.StreamChunkBase+
			sim.Duration(len(rec))*s.M.Costs.StreamPerByte, nil)
	}
	s.recsIn.Inc()
	s.Err = s.Asm.Apply(rec)
	if s.Err == ErrHashMismatch {
		s.hashMism.Inc()
	}
}

// Sync answers the source's store-NACK poll: which speculative refs the
// local store could not satisfy this round.
func (s *ImageSink) Sync(t *sim.Task, req []byte) []byte {
	if t != nil {
		s.M.CPU().Use(t, s.M.Costs.StreamChunkBase, nil)
	}
	return s.Asm.SyncReply(req)
}

// Spooled is an image written out as the three dump files of pid in a
// machine's /usr/tmp. The files are pure staging for Restart.
type Spooled struct {
	m     *kernel.Machine
	pid   int
	creds kernel.Creds
	paths []string
}

// SpoolImage writes an image's dump files to m's /usr/tmp as pid's, owned
// by the credentials its stack header names, charging the disk for each.
// On failure it removes whatever it wrote.
func SpoolImage(t *sim.Task, m *kernel.Machine, pid int, aoutRaw, filesRaw, stackRaw []byte) (*Spooled, error) {
	creds, _, err := DecodeStackHeader(stackRaw)
	if err != nil {
		return nil, fmt.Errorf("bad stack header: %w", err)
	}
	s := &Spooled{m: m, pid: pid, creds: creds}
	aoutPath, filesPath, stackPath := DumpPaths("", pid)
	for _, out := range []struct {
		path string
		data []byte
	}{
		{filesPath, filesRaw},
		{stackPath, stackRaw},
		{aoutPath, aoutRaw},
	} {
		if t != nil {
			t.Sleep(m.Costs.DiskLatency + sim.Duration(len(out.data))*m.Costs.DiskPerByte)
		}
		if err := m.NS().WriteFile(out.path, out.data, 0o700, creds.UID, creds.GID); err != nil {
			s.remove()
			return nil, fmt.Errorf("spool write failed: %w", err)
		}
		s.paths = append(s.paths, out.path)
	}
	return s, nil
}

func (s *Spooled) remove() {
	for _, path := range s.paths {
		s.m.NS().Remove(path)
	}
}

// Restart runs restart -p pid with no -h, so the image comes off the
// spool, on a network pty named ptyName, and waits for it. The spool is
// removed whatever the outcome. The restart process becomes the restored
// process, so its pid is the restored copy's when status is 0.
func (s *Spooled) Restart(t *sim.Task, ptyName string) (status, pid int, err error) {
	defer s.remove()
	pty := tty.NewNetworkPTY(s.m.Engine(), ptyName)
	stdio := s.m.NewTerminalFile(kernel.NewTTYDevice(pty))
	rp, err := s.m.Spawn(kernel.SpawnSpec{
		Path:       "/bin/" + ProgRestart,
		Args:       []string{ProgRestart, "-p", strconv.Itoa(s.pid)},
		Creds:      kernel.Creds{UID: s.creds.UID, GID: s.creds.GID, EUID: s.creds.UID, EGID: s.creds.GID},
		CWD:        "/",
		TTY:        pty,
		InheritFDs: []*kernel.File{stdio, stdio, stdio},
	})
	if err != nil {
		return -1, 0, fmt.Errorf("spawn failed: %w", err)
	}
	status, _ = rp.AwaitExitOrMigrated(t)
	return status, rp.PID, nil
}
