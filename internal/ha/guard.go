package ha

import (
	"encoding/binary"
	"strconv"
	"strings"

	"procmig/internal/core"
	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// The guardian (guardd) is the availability half of the control plane.
// A process registered for protection is checkpointed every CkptInterval:
// the first checkpoint streams the whole image to a buddy host in the
// PR 1 stream format, each later one only the pages dirtied since — a
// delta checkpoint, taken through the same SIGDUMP hook as a streaming
// migration but with the session in Checkpoint mode, so the victim
// resumes in place with dirty tracking still armed.
//
// The buddy keeps one image assembler per protection and takes a
// copy-on-write snapshot of it at every commit, so a commit costs the
// delta rather than the whole image; the three dump files are built from
// the newest snapshot only on recovery. When the source is no longer
// alive in the buddy's membership view and has committed no checkpoint
// for freshCommitIntervals beacon intervals, the buddy arbitrates over an
// independent channel (the migd transaction port, via the injected
// Arbitrate probe) and restarts the newest committed checkpoint only when
// the source is confirmed dead. A partitioned-but-alive source is counted
// as a false suspicion and left alone, preserving the
// exactly-one-live-copy invariant.

// freshCommitIntervals is how many beacon intervals a committed checkpoint
// counts as proof of life. One lost probe suspects a source, so a buddy
// that has just received an image from it has better evidence than the
// suspicion and skips the arbitration until the commit is three beacon
// rounds old.
const freshCommitIntervals = 3

// GuardHelloMagic continues the octal numbering (447 heartbeat, 450
// guardian checkpoint hello).
const GuardHelloMagic = 0o450

// EncodeGuardHello wraps a stream hello with the protection generation:
// a source that lost a checkpoint bumps the generation and resyncs a full
// image, and the buddy discards its stale assembler on the mismatch.
func EncodeGuardHello(gen uint32, inner []byte) []byte {
	b := make([]byte, 0, 6+len(inner))
	b = binary.BigEndian.AppendUint16(b, GuardHelloMagic)
	b = binary.BigEndian.AppendUint32(b, gen)
	return append(b, inner...)
}

// DecodeGuardHello splits a guardian hello into generation and the inner
// stream hello bytes.
func DecodeGuardHello(raw []byte) (gen uint32, inner []byte, err error) {
	if len(raw) < 6 || binary.BigEndian.Uint16(raw) != GuardHelloMagic {
		return 0, nil, errBadHeartbeat
	}
	return binary.BigEndian.Uint32(raw[2:]), raw[6:], nil
}

// Recovery records one buddy-side restart of a protected process.
type Recovery struct {
	Source string // the host declared dead
	PID    int    // the protected process's pid on the source
	NewPID int    // pid of the restarted copy (0 if the restart failed)
	Seq    int    // which committed checkpoint was restored
	Status int    // restart exit status (0: the copy is live)
	At     sim.Time
}

// protection is the source-side state of one guarded process.
type protection struct {
	pid    int
	buddy  string
	gen    uint32
	txn    uint32
	sess   *core.StreamSession
	broken bool // last checkpoint failed; next one resyncs a full image
	ended  bool // released; swept from the table at the end of the tick
}

type ckptKey struct {
	source string
	pid    int
}

// ckptState is the buddy-side state of one protection: the live
// assembler for the current generation plus the newest committed image.
// The committed image survives generation resyncs — if the source dies
// mid-resync, the buddy restarts from what last committed.
type ckptState struct {
	source string
	pid    int
	gen    uint32
	txn    uint32 // the generation's trace id (from the stream hello)
	asm    *core.ImageAssembler

	img         *core.CommittedImage // newest committed checkpoint
	seq         int                  // committed checkpoints so far
	committedAt sim.Time

	released  bool // the source told us the process is gone
	recovered bool // we restarted it here
	attempts  int  // failed local restarts (bounded)
}

// Guard is one host's guardian: source role (checkpointing its own
// protected processes to buddies) and buddy role (holding checkpoints
// for peers and recovering them).
type Guard struct {
	n     *Node
	prot  []*protection
	ckpts map[ckptKey]*ckptState

	// Arbitrate probes whether a suspected host is really dead, over a
	// channel independent of the heartbeat port. Injected by the cluster
	// wiring (apps.ProbeAlive over the migd transaction port) to keep ha
	// free of an apps dependency. nil disables recovery entirely.
	Arbitrate func(t *sim.Task, peer string) bool

	// Counters and records for experiments and tests.
	CheckpointsTaken int        // source role: committed checkpoints
	FalseSuspicions  int        // buddy role: suspects that proved alive
	Recoveries       []Recovery // buddy role: restarts performed
	WireBytes        int64      // source role: checkpoint bytes shipped
	SavedBytes       int64      // source role: bytes the wire encodings elided
}

func newGuard(n *Node) *Guard {
	return &Guard{n: n, ckpts: map[ckptKey]*ckptState{}}
}

// guardReleaseVerb is the GuardPort request "release <source> <pid>": the
// source's guardian telling the buddy the process ended voluntarily, so
// its checkpoints must never be restarted.
const guardReleaseVerb = "release"

func (g *Guard) listen() error {
	if err := g.n.host.Listen(GuardPort, g.handleCall); err != nil {
		return err
	}
	// The summary service may already be up (migd registers it too);
	// ServeStoreSummary tolerates that.
	if err := core.ServeStoreSummary(g.n.host, g.n.m); err != nil {
		return err
	}
	return g.n.host.ListenStream(GuardSpoolPort, g.acceptSpool)
}

func (g *Guard) handleCall(t *sim.Task, raw []byte) []byte {
	f := strings.Fields(string(raw))
	if len(f) == 3 && f[0] == guardReleaseVerb {
		if pid, err := strconv.Atoi(f[2]); err == nil {
			if st, ok := g.ckpts[ckptKey{f[1], pid}]; ok {
				st.released = true
			}
		}
		return []byte("ok")
	}
	return []byte("?")
}

// Protect registers pid for guardianship with its checkpoints spooled to
// buddy. The first checkpoint is taken on the next guardd tick.
func (g *Guard) Protect(pid int, buddy string) {
	g.prot = append(g.prot, &protection{pid: pid, buddy: buddy})
}

// Protected reports whether pid is currently under guardianship.
func (g *Guard) Protected(pid int) bool {
	for _, pr := range g.prot {
		if pr.pid == pid {
			return true
		}
	}
	return false
}

// CommittedSeq reports how many checkpoints of source/pid this buddy has
// committed (0 if it holds none).
func (g *Guard) CommittedSeq(source string, pid int) int {
	if st, ok := g.ckpts[ckptKey{source, pid}]; ok {
		return st.seq
	}
	return 0
}

// --- source role ------------------------------------------------------------

// checkpointLoop is guardd's source half: every CkptInterval, checkpoint
// each protected process to its buddy.
func (g *Guard) checkpointLoop(t *sim.Task) {
	for !g.n.stopped {
		t.Sleep(g.n.cfg.CkptInterval)
		if g.n.stopped {
			return
		}
		if g.n.host.Down() {
			continue // a crashed host checkpoints nothing (and must not release)
		}
		// Checkpoint by index, not over a snapshot: checkpoint() parks on
		// the network for seconds at a time, and a Protect() registered
		// meanwhile appends to g.prot — an aliased rebuild would silently
		// drop it. Ended protections are only marked here and swept below,
		// where the filter runs without yielding.
		for i := 0; i < len(g.prot); i++ {
			pr := g.prot[i]
			if !pr.ended && !g.checkpoint(t, pr) {
				pr.ended = true
			}
		}
		kept := g.prot[:0]
		for _, pr := range g.prot {
			if !pr.ended {
				kept = append(kept, pr)
			}
		}
		g.prot = kept
	}
}

// checkpoint takes one (delta) checkpoint of pr, reporting whether the
// protection is still live. A failure marks the protection broken: the
// next attempt bumps the generation and resyncs a full image, because a
// torn transfer leaves source and buddy disagreeing about the page set.
func (g *Guard) checkpoint(t *sim.Task, pr *protection) bool {
	m := g.n.m
	p, ok := m.FindProc(pr.pid)
	if ok && p.Spawning {
		return true // its image is still loading: nothing to checkpoint yet
	}
	if !ok || p.State != kernel.ProcRunning || p.VM == nil {
		// Ended voluntarily (exited, was killed, or migrated away): the
		// buddy must forget the checkpoints rather than resurrect it.
		g.release(t, pr)
		return false
	}
	if pr.sess == nil || pr.broken {
		pr.gen++
		x := hashName(m.Name+pr.buddy)*31 + uint64(pr.pid)*40503 + uint64(pr.gen)
		pr.txn = uint32(x ^ x>>32)
		if pr.txn == 0 {
			pr.txn = 1
		}
		// One root span per protection generation; every checkpoint of the
		// generation is a child (Root is get-or-create, so the per-tick
		// calls below can never fork the trace).
		if root := m.Trace.Root(pr.txn, "protect", m.Name, pr.pid, t.Now()); root != nil {
			root.Detail = "buddy " + pr.buddy + " gen " + strconv.Itoa(int(pr.gen))
		}
		// Wire is spelled out even though it is the zero value: delta
		// checkpoints are the dedup layer's best case (a dirty page left
		// unchanged since the session last shipped it ships nothing), and
		// this must not silently change if the default ever does.
		pr.sess = &core.StreamSession{Txn: pr.txn, Checkpoint: true, Wire: core.WireElideLZ}
		// The generation bump starts a fresh session here and a fresh
		// assembler on the buddy, so neither side trusts what a torn
		// transfer left behind — but it keeps the hosts' page stores,
		// which is what makes the resync cheap: the full image re-ships
		// mostly as speculative store refs against the buddy's summary.
		pr.sess.Store = core.MachineStore(m)
		pr.sess.Remote = core.FetchStoreSummary(t, g.n.host, pr.buddy)
		// The summary fetch parks on the network; the victim may have
		// ended while we waited, in which case this is a release, not a
		// checkpoint.
		if p.State != kernel.ProcRunning || p.VM == nil {
			g.release(t, pr)
			return false
		}
		pr.broken = false
		p.VM.SetDirtyTracking(true)
	}
	hello := EncodeGuardHello(pr.gen, core.HelloFor(p, pr.txn).Encode())
	csp := m.Trace.Child(pr.txn, "ckpt", m.Name, pr.pid, t.Now())
	stream, err := g.openRetry(t, pr.buddy, hello)
	if err != nil {
		csp.EndDetail(t.Now(), "open to "+pr.buddy+" failed")
		m.Obs.Counter("ha.ckpt_failures").Inc()
		pr.broken = true
		return true
	}
	sess := pr.sess
	sess.Stream = stream
	sess.Settled = false
	sess.Status = 0
	sess.Err = nil
	// The session accumulates across checkpoints (it lives as long as the
	// protection); take before/after deltas so the Guard counters reflect
	// this checkpoint's traffic alone, success or not.
	wb0, sb0 := sess.WireBytes, sess.SavedBytes
	settled, e := core.DumpToStream(t, p, kernel.Creds{}, sess)
	if e != 0 {
		stream.Abort(t)
		csp.EndDetail(t.Now(), "signal: "+e.Error())
		m.Obs.Counter("ha.ckpt_failures").Inc()
		pr.broken = true
		return true
	}
	if !settled {
		// The process died between the signal and the dump.
		stream.Abort(t)
		csp.EndDetail(t.Now(), "victim died")
		g.release(t, pr)
		return false
	}
	g.WireBytes += sess.WireBytes - wb0
	g.SavedBytes += sess.SavedBytes - sb0
	m.Obs.Counter("ha.ckpt_wire_bytes").Add(sess.WireBytes - wb0)
	m.Obs.Counter("ha.ckpt_saved_bytes").Add(sess.SavedBytes - sb0)
	if sess.Err != nil || sess.Status != 0 {
		csp.EndDetail(t.Now(), "transfer failed")
		m.Obs.Counter("ha.ckpt_failures").Inc()
		pr.broken = true
		return true
	}
	g.CheckpointsTaken++
	m.Obs.Counter("ha.checkpoints").Inc()
	csp.EndDetail(t.Now(), "committed, "+strconv.FormatInt(sess.WireBytes-wb0, 10)+" B")
	return true
}

// release tells the buddy (best effort, with a couple of resends) that
// the protection ended voluntarily.
func (g *Guard) release(t *sim.Task, pr *protection) {
	req := []byte(guardReleaseVerb + " " + g.n.m.Name + " " + strconv.Itoa(pr.pid))
	for i := 0; i < 3; i++ {
		if _, err := g.n.host.Call(t, pr.buddy, GuardPort, req); err != errno.ETIMEDOUT {
			return
		}
	}
}

// openRetry opens the checkpoint stream, resending a handshake lost to
// drop faults (half-open streams are torn down server-side, so reopening
// is safe).
func (g *Guard) openRetry(t *sim.Task, to string, hello []byte) (*netsim.Stream, error) {
	var err error
	for i := 0; i < 8; i++ {
		if i > 0 {
			d := 250 * sim.Millisecond << (i - 1)
			if d > 2*sim.Second {
				d = 2 * sim.Second
			}
			t.Sleep(d)
		}
		var s *netsim.Stream
		s, err = g.n.host.OpenStream(t, to, GuardSpoolPort, hello)
		if err == nil {
			return s, nil
		}
		if err != errno.ETIMEDOUT {
			return nil, err
		}
	}
	return nil, err
}

// --- buddy role -------------------------------------------------------------

// acceptSpool accepts one checkpoint stream from a peer guardian.
func (g *Guard) acceptSpool(_ *sim.Task, from string, helloRaw []byte) (netsim.StreamSink, error) {
	gen, innerRaw, err := DecodeGuardHello(helloRaw)
	if err != nil {
		return nil, err
	}
	asm, err := core.NewImageAssembler(innerRaw)
	if err != nil {
		return nil, err
	}
	asm.SetStore(core.MachineStore(g.n.m))
	key := ckptKey{from, int(asm.Hello().PID)}
	st := g.ckpts[key]
	if st == nil {
		st = &ckptState{source: key.source, pid: key.pid}
		g.ckpts[key] = st
	}
	if st.asm == nil || st.gen != gen {
		// New generation: fresh assembler, but the newest committed image
		// is kept until the new generation commits one of its own.
		st.gen = gen
		st.asm = asm
		st.txn = asm.Hello().Txn
	}
	st.released = false // the source is actively guarding it again
	return &guardSink{ImageSink: core.NewImageSink(g.n.m, st.asm), g: g, st: st}, nil
}

// guardSink consumes one checkpoint stream into the protection's
// assembler through the shared core sink. Done commits: it snapshots the
// assembler as the newest committed image. Abort keeps the previous one.
// The half-received delta stays in the assembler (until the source
// resyncs a full image under a new generation), but the assembler is
// copy-on-write after a commit, so nothing it holds can change a
// committed image.
type guardSink struct {
	core.ImageSink
	g  *Guard
	st *ckptState
}

func (s *guardSink) Done(t *sim.Task) []byte {
	if s.Err != nil {
		return core.EncodeStreamStatus(-1)
	}
	img, err := s.Asm.Commit()
	if err != nil {
		return core.EncodeStreamStatus(-1)
	}
	s.st.img = img
	s.st.seq++
	s.st.committedAt = s.g.n.now(t)
	return core.EncodeStreamStatus(0)
}

func (s *guardSink) Abort(_ *sim.Task) {}

// monitorLoop is guardd's buddy half: watch the membership table and
// recover protections whose source is confirmed dead.
func (g *Guard) monitorLoop(t *sim.Task) {
	for !g.n.stopped {
		t.Sleep(g.n.cfg.Interval)
		if g.n.stopped {
			return
		}
		if g.n.host.Down() || g.Arbitrate == nil {
			continue
		}
		for _, st := range g.ckptList() {
			g.consider(t, st)
		}
	}
}

// ckptList snapshots the buddy table in deterministic (key-sorted) order.
func (g *Guard) ckptList() []*ckptState {
	keys := make([]ckptKey, 0, len(g.ckpts))
	for k := range g.ckpts {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; the table is tiny
		for j := i; j > 0 && (keys[j].source < keys[j-1].source ||
			(keys[j].source == keys[j-1].source && keys[j].pid < keys[j-1].pid)); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]*ckptState, len(keys))
	for i, k := range keys {
		out[i] = g.ckpts[k]
	}
	return out
}

// consider decides whether one protection needs recovery, arbitrating
// before ever restarting.
func (g *Guard) consider(t *sim.Task, st *ckptState) {
	if st.released || st.recovered || st.seq == 0 || st.attempts >= 3 {
		return
	}
	now := t.Now()
	// A fresh checkpoint commit is as good as a heartbeat: whoever
	// streamed it was alive moments ago.
	if sim.Duration(now-st.committedAt) <= freshCommitIntervals*g.n.cfg.Interval {
		return
	}
	if g.n.members.Alive(st.source, now) {
		return
	}
	mobs := g.n.m.Obs
	mobs.Counter("ha.suspicions").Inc()
	// Suspected. One lost probe, or a partition of the beacon path alone,
	// suspects a live host, so ask over the independent transaction port
	// before acting.
	mobs.Counter("ha.arbitrations").Inc()
	if g.Arbitrate(t, st.source) {
		g.FalseSuspicions++
		mobs.Counter("ha.false_suspicions").Inc()
		return
	}
	// Arbitration took time; a beacon may have landed meanwhile.
	if g.n.members.Alive(st.source, t.Now()) {
		g.FalseSuspicions++
		mobs.Counter("ha.false_suspicions").Inc()
		return
	}
	g.recover(t, st)
}

// recover restarts the newest committed checkpoint locally: build its
// three dump files and spool and restart them through the same core step
// as the streaming-migration destination.
func (g *Guard) recover(t *sim.Task, st *ckptState) {
	st.attempts++
	m := g.n.m
	rec := Recovery{Source: st.source, PID: st.pid, Seq: st.seq, Status: -1, At: t.Now()}
	// Work since the last committed checkpoint is gone whatever happens
	// next; charge it when the verdict is known below.
	lost := int64(t.Now() - st.committedAt)
	sp := m.Trace.Child(st.txn, "recover", m.Name, st.pid, t.Now())
	fail := func(why string) {
		sp.EndDetail(t.Now(), why)
		m.Obs.Counter("ha.recovery_failures").Inc()
		g.Recoveries = append(g.Recoveries, rec)
	}
	aoutRaw, filesRaw, stackRaw := st.img.Spool()
	spool, err := core.SpoolImage(t, m, st.pid, aoutRaw, filesRaw, stackRaw)
	if err != nil {
		fail(err.Error())
		return
	}
	status, newPID, err := spool.Restart(t, "guardd-pty")
	if err != nil {
		fail(err.Error())
		return
	}
	rec.Status = status
	if status == 0 {
		st.recovered = true
		rec.NewPID = newPID
		m.Obs.Counter("ha.recoveries").Inc()
		m.Obs.Counter("ha.lost_work_us").Add(lost)
		sp.EndDetail(t.Now(), "pid "+strconv.Itoa(newPID)+" from seq "+strconv.Itoa(st.seq))
	} else {
		sp.EndDetail(t.Now(), "restart status "+strconv.Itoa(status))
		m.Obs.Counter("ha.recovery_failures").Inc()
	}
	g.Recoveries = append(g.Recoveries, rec)
}
