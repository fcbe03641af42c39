package apps

import (
	"strconv"

	"procmig/internal/core"
	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// Streaming migration ports: migd's pre-copy orchestrator and the image
// stream it opens to the destination's migd. Separate from MigdPort so the
// classic request format (and the Fig.4 byte counts) stay untouched.
const (
	MigdPrecopyPort = 516
	MigdStreamPort  = 517
)

// precopyReq asks the migd on the source machine to stream pid's image to
// Dest: Rounds pre-copy rounds while the process keeps running, then
// SIGDUMP and the dirty-page delta. Rounds == 0 is a streaming
// stop-and-copy: freeze first, ship everything once; Rounds < 0 lets migd
// pre-copy adaptively until the dirty set converges (or a cap is hit).
type precopyReq struct {
	UID, GID int
	PID      int
	Dest     string
	Rounds   int
	Txn      uint32 // migration transaction id; 0 is refused with EINVAL
	Wire     byte   // core.WireMode for the image stream (0: elide+LZ)
}

// Adaptive pre-copy policy (Rounds < 0): keep copying while the dirty set
// is still shrinking, stop once it is small enough that the freeze-time
// delta is cheap, and give up pre-copying after a bounded number of rounds
// on workloads that never converge.
const (
	adaptiveMaxRounds = 8
	adaptiveGoalPages = 8
)

// startStreamMigd wires the two streaming endpoints into m's migd, plus
// the page-store summary service sources query before opening a stream.
func startStreamMigd(m *kernel.Machine, st *migdState, host *netsim.Host) error {
	if err := host.Listen(MigdPrecopyPort, func(t *sim.Task, raw []byte) []byte {
		return handlePrecopy(t, m, st, host, raw)
	}); err != nil {
		return err
	}
	if err := core.ServeStoreSummary(host, m); err != nil {
		return err
	}
	return host.ListenStream(MigdStreamPort, func(_ *sim.Task, _ string, hello []byte) (netsim.StreamSink, error) {
		asm, err := core.NewImageAssembler(hello)
		if err != nil {
			return nil, err
		}
		asm.SetStore(core.MachineStore(m))
		return &migdSink{ImageSink: core.NewImageSink(m, asm), st: st, txn: asm.Hello().Txn}, nil
	})
}

// handlePrecopy runs on the source machine, in the requesting client's
// task: open the image stream, pre-copy while the victim keeps running,
// then arm the streaming dump and deliver SIGDUMP.
func handlePrecopy(t *sim.Task, m *kernel.Machine, st *migdState, host *netsim.Host, raw []byte) []byte {
	var req precopyReq
	if err := decode(raw, &req); err != nil {
		return encode(&remoteResp{Status: -1, Err: "bad request"})
	}
	fail := func(msg string) []byte {
		return encode(&remoteResp{Status: -1, Err: msg})
	}
	if t != nil {
		t.Sleep(MigdRequestCost)
	}
	if req.Txn == 0 {
		// Every client names its transaction; without an id nothing could
		// suppress a duplicate or resolve a lost answer.
		return fail(errno.EINVAL.Error())
	}
	if st.committed(req.Txn) {
		// A duplicate of a transaction that already committed: the first
		// answer was lost, the migration was not.
		return encode(&remoteResp{Status: 0})
	}
	p, ok := m.FindProc(req.PID)
	if !ok || p.State != kernel.ProcRunning || p.VM == nil {
		return fail(errno.ESRCH.Error())
	}
	// Same permission rule Kill applies; checked up front so an
	// unauthorized request ships no image bytes at all.
	creds := kernel.Creds{UID: req.UID, GID: req.GID, EUID: req.UID, EGID: req.GID}
	if !creds.Root() && creds.UID != p.Creds.UID && creds.UID != p.Creds.EUID {
		return fail(errno.EPERM.Error())
	}

	hello := core.HelloFor(p, req.Txn)
	// The open handshake retries like any transaction call; a half-open
	// stream is torn down server-side, so reopening is safe.
	var stream *netsim.Stream
	var err error
	for i := 0; i < streamOpenAttempts; i++ {
		if i > 0 && t != nil {
			t.Sleep(backoffDelay(i - 1))
		}
		stream, err = host.OpenStream(t, req.Dest, MigdStreamPort, hello.Encode())
		if err == nil || !retryable(err) {
			break
		}
	}
	if err != nil {
		return fail("stream to " + req.Dest + ": " + err.Error())
	}
	sess := &core.StreamSession{Stream: stream, Txn: req.Txn, Wire: core.WireMode(req.Wire)}
	sess.Obs = core.NewStreamObs(m.Obs)
	// Cross-session dedup: feed the host store as pages ship, and elide
	// against the destination's advertised summary. Both are nil-safe —
	// a host with its store disabled just streams like PR 4.
	if sess.Wire != core.WireRaw {
		sess.Store = core.MachineStore(m)
		sess.Remote = core.FetchStoreSummary(t, host, req.Dest)
	}
	sess.Resolve = func(rt *sim.Task) int {
		return resolveTxn(rt, host, req.Dest, req.Txn)
	}
	at := func() sim.Time {
		if t != nil {
			return t.Now()
		}
		return 0
	}
	// Pre-copy CPU work contends with the victim for the source CPU.
	charge := func(d sim.Duration) {
		if t != nil {
			m.CPU().Use(t, d, nil)
		}
	}
	abort := func(msg string) []byte {
		p.VM.SetDirtyTracking(false)
		stream.Abort(t)
		return fail(msg)
	}
	if req.Rounds != 0 {
		p.VM.SetDirtyTracking(true)
		rounds := req.Rounds
		if rounds < 0 {
			rounds = adaptiveMaxRounds
		}
		prevDirty := -1
		for i := 0; i < rounds; i++ {
			// The span wraps the round but stays out of SendRound itself:
			// the steady-state send path must not pick up allocations.
			rsp := m.Trace.Child(req.Txn, "precopy", m.Name, req.PID, at())
			wb0 := sess.WireBytes
			if err := sess.SendRound(t, p.VM, m.Costs, charge); err != nil {
				rsp.EndDetail(at(), "round "+strconv.Itoa(i+1)+" failed: "+err.Error())
				return abort("pre-copy: " + err.Error())
			}
			rsp.EndDetail(at(), "round "+strconv.Itoa(i+1)+": "+
				strconv.FormatInt(sess.WireBytes-wb0, 10)+" B on the wire")
			if req.Rounds < 0 {
				// Adaptive: stop once the next delta is already small, or
				// the working set has stopped shrinking (further rounds
				// would just re-ship the same hot pages — and with dedup
				// on, mostly as refs, but the freeze delta won't improve).
				d := p.VM.DirtyCount()
				if d <= adaptiveGoalPages || (prevDirty >= 0 && d >= prevDirty) {
					break
				}
				prevDirty = d
			}
		}
	}
	// On commit the process dies, on abort it resumes where it was.
	settled, e := core.DumpToStream(t, p, creds, sess)
	if e != 0 {
		return abort("dump: " + e.Error())
	}
	if !settled {
		return fail("process died before the transfer settled")
	}
	st.recordStream(sess.Stats())
	if sess.Err != nil {
		return fail("transfer: " + sess.Err.Error())
	}
	if sess.Status == 0 {
		st.record(req.Txn, 0)
	}
	return encode(&remoteResp{Status: sess.Status, PID: sess.NewPID})
}

// migdSink is the destination side of one streaming migration: the shared
// core sink reassembles the image, and Done spools and restarts it through
// the shared core step — no remote reads for the image. The verdict is
// recorded in the machine's transaction table so the source can resolve a
// lost answer.
type migdSink struct {
	core.ImageSink
	st  *migdState
	txn uint32
}

func (s *migdSink) fail() []byte {
	s.st.record(s.txn, -1)
	return core.EncodeStreamStatus(-1)
}

func (s *migdSink) Done(t *sim.Task) []byte {
	at := func() sim.Time {
		if t != nil {
			return t.Now()
		}
		return 0
	}
	if s.Err != nil {
		return s.fail()
	}
	m, pid := s.M, int(s.Asm.Hello().PID)
	ssp := m.Trace.Child(s.txn, "spool", m.Name, pid, at())
	aoutRaw, filesRaw, stackRaw, err := s.Asm.Spool()
	if err != nil {
		ssp.EndDetail(at(), "image incomplete")
		return s.fail()
	}
	spool, err := core.SpoolImage(t, m, pid, aoutRaw, filesRaw, stackRaw)
	if err != nil {
		ssp.EndDetail(at(), err.Error())
		return s.fail()
	}
	ssp.EndDetail(at(), strconv.Itoa(len(aoutRaw)+len(filesRaw)+len(stackRaw))+" B in 3 files")
	rsp := m.Trace.Child(s.txn, "restart", m.Name, pid, at())
	status, newPID, err := spool.Restart(t, "migd-pty")
	if err != nil {
		rsp.EndDetail(at(), err.Error())
		return s.fail()
	}
	rsp.EndDetail(at(), "status "+strconv.Itoa(status))
	s.st.record(s.txn, status)
	// Ship the restored copy's new pid back with the verdict.
	return core.EncodeStreamStatusPID(status, newPID)
}

// Abort runs when the stream dies before Close reaches Done: the opener
// gave up, or the half-open connection timed out. Nothing was spooled
// (only Done spools); the transaction is recorded aborted so a source
// resolve query gets a definite answer.
func (s *migdSink) Abort(_ *sim.Task) {
	s.st.record(s.txn, -1)
}
