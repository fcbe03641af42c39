package apps

import (
	"strconv"

	"procmig/internal/core"
	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// Transactional migration (the robustness layer): a migration is a
// transaction with the source as the decider. The victim stays
// frozen-but-alive on the source — classic path: dump files retained,
// streaming path: dirty tracking armed — until the destination
// acknowledges a successful restart; only then does the source reap the
// original and garbage-collect the dump files. On any failure or timeout
// the victim resumes exactly where it was and the destination discards
// its partial spool, so a migration can never lose the process.
//
// The verbs ride migd's port 515 request format. Handlers run
// synchronously inside the delivered request (netsim semantics), so there
// are no in-flight transaction states to race with: when a query says the
// destination has no record of a transaction, no restart for it ever ran.
const (
	cmdTxMigrate = "txmigrate" // source migd: run one classic migration transaction
	cmdTxRestart = "txrestart" // destination migd: restart from the source's dump files
	cmdTxQuery   = "txquery"   // either side: what became of this transaction?
	cmdTxAbort   = "txabort"   // destination migd: seal a transaction as aborted

	txnSettled = "settled"
	txnUnknown = "unknown"
)

// Retry policy. A lost message costs the caller the network timeout, then
// a capped exponential backoff before the resend. At a 20% chunk-drop
// rate a request/response pair fails with probability ~0.36, so ten
// attempts leave ~4e-5.
const (
	txnCallAttempts    = 10
	txnResolveAttempts = 12
	streamOpenAttempts = 8
)

// backoffDelay is the capped exponential backoff before retry attempt+2:
// 250ms, 500ms, 1s, 2s, then 4s flat.
func backoffDelay(attempt int) sim.Duration {
	d := 250 * sim.Millisecond
	for ; attempt > 0 && d < 4*sim.Second; attempt-- {
		d *= 2
	}
	if d > 4*sim.Second {
		d = 4 * sim.Second
	}
	return d
}

// retryable reports whether a Call error is worth retrying: the message
// (or its answer) was lost, or the host is down and may come back.
func retryable(err error) bool {
	return err == errno.ETIMEDOUT || err == errno.EHOSTDOWN
}

// callRetry is Call with the transaction retry policy. The request must be
// idempotent: a lost response means the handler did run.
func callRetry(t *sim.Task, host *netsim.Host, to string, port int, req []byte, attempts int) ([]byte, error) {
	retries, backoffUS := retryCounters(host)
	var raw []byte
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && t != nil {
			d := backoffDelay(i - 1)
			if retries != nil {
				retries.Inc()
				backoffUS.Add(int64(d))
			}
			t.Sleep(d)
		}
		raw, err = host.Call(t, to, port, req)
		if err == nil {
			return raw, nil
		}
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, err
}

// retryCounters resolves the caller-side retry accounting for a network
// host, when its network carries a registry (clusters do, bare test
// networks need not).
func retryCounters(host *netsim.Host) (retries, backoffUS *obs.Counter) {
	reg := host.Network().Obs()
	if reg == nil {
		return nil, nil
	}
	sc := reg.Scope(host.Name())
	return sc.Counter("migd.call_retries"), sc.Counter("migd.backoff_wait_us")
}

// migdDoneCap bounds migd's retained per-transaction state. A long-lived
// cluster settles an unbounded number of transactions; the table keeps
// only the newest verdicts (enough to suppress any plausible duplicate —
// retries stop within seconds, evictions take far longer). Everything
// older lives on as obs registry totals.
const migdDoneCap = 1024

// migdState is one machine's migd transaction table: the latest settled
// status per transaction id. StartMigd builds it once and hands it to the
// machine's handlers. Only a recorded success is final — a failed attempt
// may legitimately be retried under the same id, so lookups that
// short-circuit duplicates check committed(), while txquery reports
// whatever was last recorded.
type migdState struct {
	done  map[uint32]int
	order []uint32 // keys of done, oldest verdict first (eviction order)
	obs   migdObs
}

// migdObs is the migd slice of the machine's metrics scope, resolved once
// per machine so recording a verdict is counter arithmetic.
type migdObs struct {
	txnCommits, txnAborts, txnEvicted              *obs.Counter
	streams, streamRounds, streamWire, streamSaved *obs.Counter
	// Occupancy of the bounded verdict table, so an operator can see how
	// close each host sits to its eviction horizon (the eviction counter
	// above only shows losses after the fact).
	txnTable *obs.Gauge
}

func newMigdState(s *obs.Scope) *migdState {
	return &migdState{done: map[uint32]int{}, obs: migdObs{
		txnCommits:   s.Counter("migd.txn_commits"),
		txnAborts:    s.Counter("migd.txn_aborts"),
		txnEvicted:   s.Counter("migd.txn_evicted"),
		streams:      s.Counter("migd.streams"),
		streamRounds: s.Counter("migd.stream_rounds"),
		streamWire:   s.Counter("migd.stream_wire_bytes"),
		streamSaved:  s.Counter("migd.stream_saved_bytes"),
		txnTable:     s.Gauge("migd.txn_table"),
	}}
}

// record notes txn's verdict and evicts the oldest entries past
// migdDoneCap, folding the eviction into the registry so the loss is
// visible.
func (s *migdState) record(txn uint32, status int) {
	if txn == 0 {
		return
	}
	if _, seen := s.done[txn]; !seen {
		s.order = append(s.order, txn)
	}
	s.done[txn] = status
	if status == 0 {
		s.obs.txnCommits.Inc()
	} else {
		s.obs.txnAborts.Inc()
	}
	for len(s.order) > migdDoneCap {
		delete(s.done, s.order[0])
		copy(s.order, s.order[1:])
		s.order = s.order[:len(s.order)-1]
		s.obs.txnEvicted.Inc()
	}
	s.obs.txnTable.Set(int64(len(s.done)))
}

// recordStream folds one streaming transfer's accounting into the totals.
func (s *migdState) recordStream(stats core.StreamStats) {
	s.obs.streams.Inc()
	s.obs.streamRounds.Add(int64(stats.Rounds))
	s.obs.streamWire.Add(stats.WireBytes)
	s.obs.streamSaved.Add(stats.SavedBytes)
}

// abortIfAbsent seals txn as aborted unless an outcome is already on
// record (an explicit abort must never overwrite a real verdict).
func (s *migdState) abortIfAbsent(txn uint32) {
	if _, ok := s.done[txn]; !ok {
		s.record(txn, -1)
	}
}

func (s *migdState) lookup(txn uint32) (int, bool) {
	status, ok := s.done[txn]
	return status, ok
}

// committed reports whether txn has already succeeded — the only outcome
// that makes a duplicate request a no-op.
func (s *migdState) committed(txn uint32) bool {
	if txn == 0 {
		return false
	}
	status, ok := s.lookup(txn)
	return ok && status == 0
}

// parseTxnArgs reads the leading "txn pid" arguments common to the verbs.
func parseTxnArgs(args []string) (txn uint32, pid int, ok bool) {
	if len(args) < 2 {
		return 0, 0, false
	}
	t64, err1 := strconv.ParseUint(args[0], 10, 32)
	p, err2 := strconv.Atoi(args[1])
	if err1 != nil || err2 != nil || p <= 0 {
		return 0, 0, false
	}
	return uint32(t64), p, true
}

// handleTxnMigrate runs on the source machine's migd: one classic-path
// migration transaction. Phase one freezes the victim with its dump files
// on disk (a DumpHold parks it instead of letting SIGDUMP kill it) and
// runs dumpproc's §4.4 pathname fixups; phase two drives the restart on
// the destination with retries and resolves commit-or-abort.
func handleTxnMigrate(t *sim.Task, m *kernel.Machine, st *migdState, host *netsim.Host, req *remoteReq) *remoteResp {
	txn, pid, ok := parseTxnArgs(req.Args)
	if !ok || len(req.Args) != 3 {
		return &remoteResp{Status: -1, Err: "bad txmigrate request"}
	}
	dest := req.Args[2]
	if st.committed(txn) {
		// A duplicate of a transaction that already committed: the first
		// answer was lost, the work was not.
		return &remoteResp{Status: 0}
	}
	p, ok := m.FindProc(pid)
	if !ok || p.State != kernel.ProcRunning {
		return &remoteResp{Status: -1, Err: errno.ESRCH.Error()}
	}
	creds := kernel.Creds{UID: req.UID, GID: req.GID, EUID: req.UID, EGID: req.GID}
	if !creds.Root() && creds.UID != p.Creds.UID && creds.UID != p.Creds.EUID {
		return &remoteResp{Status: -1, Err: errno.EPERM.Error()}
	}

	at := func() sim.Time {
		if t != nil {
			return t.Now()
		}
		return 0
	}
	hold, e := core.ArmDumpHold(p)
	if e != 0 {
		// A streaming migration or checkpoint owns the next SIGDUMP; the
		// client retries the transaction.
		return &remoteResp{Status: -1, Err: e.Error()}
	}
	dsp := m.Trace.Child(txn, "dump", m.Name, pid, at())
	abort := func(msg string) *remoteResp {
		core.ResolveDumpHold(hold, false)
		dsp.EndDetail(at(), msg)
		return &remoteResp{Status: -1, Err: msg}
	}
	// dumpproc delivers SIGDUMP and rewrites the files file's pathnames;
	// with the hold armed the victim parks after writing the dump files
	// instead of dying, so dumpproc sees exactly what it always saw.
	dres := runRemoteCommand(t, m, &remoteReq{
		UID: req.UID, GID: req.GID,
		Cmd: core.ProgDumpproc, Args: []string{"-p", req.Args[1]},
	})
	if dres.Status != 0 {
		return abort("dumpproc failed: " + dres.Err)
	}
	if !hold.AwaitFrozen(t) {
		if e := hold.DumpFailed(); e != 0 {
			return abort("dump: " + e.Error())
		}
		return abort("process died before freezing")
	}
	dsp.EndDetail(at(), "frozen")

	// Victim frozen, image on our /usr/tmp. Drive the destination restart;
	// the request is idempotent under txn, so lost answers just retry.
	rreq := &remoteReq{
		UID: req.UID, GID: req.GID,
		Cmd: cmdTxRestart, Args: []string{req.Args[0], req.Args[1], m.Name},
	}
	rsp := m.Trace.Child(txn, "restart-rpc", m.Name, pid, at())
	status, newPID := -1, 0
	raw, cerr := callRetry(t, host, dest, MigdPort, encode(rreq), txnCallAttempts)
	if cerr == nil {
		var rresp remoteResp
		if decode(raw, &rresp) == nil {
			status = rresp.Status
			newPID = rresp.PID
		}
	} else {
		// Out of retries with the outcome unknown: ask the destination
		// what actually happened before deciding, so a restart whose
		// answer was lost cannot end as two live copies.
		status = resolveTxn(t, host, dest, txn)
	}
	if status == 0 {
		rsp.EndDetail(at(), "pid "+strconv.Itoa(newPID)+" on "+dest)
		core.ResolveDumpHold(hold, true) // reap the original, GC the dump files
		st.record(txn, 0)
		return &remoteResp{Status: 0, PID: newPID}
	}
	rsp.EndDetail(at(), "status "+strconv.Itoa(status))
	core.ResolveDumpHold(hold, false) // resume the victim, GC the dump files
	// Seal the abort on the destination, best effort, so a later query
	// gets a definite answer.
	host.Call(t, dest, MigdPort, encode(&remoteReq{Cmd: cmdTxAbort, Args: []string{req.Args[0], req.Args[1]}}))
	return &remoteResp{Status: -1, Err: "restart on " + dest + " failed"}
}

// handleTxnRestart runs on the destination machine's migd: restart pid
// from the dump files retained on the (frozen) source, recording the
// outcome under txn so the source can resolve a lost answer.
func handleTxnRestart(t *sim.Task, m *kernel.Machine, st *migdState, req *remoteReq) *remoteResp {
	txn, pid, ok := parseTxnArgs(req.Args)
	if !ok || len(req.Args) != 3 {
		return &remoteResp{Status: -1, Err: "bad txrestart request"}
	}
	from := req.Args[2]
	if st.committed(txn) {
		return &remoteResp{Status: 0}
	}
	at := func() sim.Time {
		if t != nil {
			return t.Now()
		}
		return 0
	}
	sp := m.Trace.Child(txn, "restart", m.Name, pid, at())
	resp := runRemoteCommand(t, m, &remoteReq{
		UID: req.UID, GID: req.GID,
		Cmd: core.ProgRestart, Args: []string{"-p", req.Args[1], "-h", from},
	})
	st.record(txn, resp.Status)
	if resp.Status == 0 {
		sp.EndDetail(at(), "pid "+strconv.Itoa(resp.PID))
	} else {
		sp.EndDetail(at(), "status "+strconv.Itoa(resp.Status))
	}
	return resp
}

// handleTxnQuery reports what this machine's migd recorded for txn.
func handleTxnQuery(st *migdState, req *remoteReq) *remoteResp {
	txn, _, ok := parseTxnArgs(req.Args)
	if !ok {
		return &remoteResp{Status: -1, Err: "bad txquery request"}
	}
	if status, found := st.lookup(txn); found {
		return &remoteResp{Status: status, Output: txnSettled}
	}
	return &remoteResp{Status: -1, Output: txnUnknown}
}

// handleTxnAbort seals txn as aborted (unless it already settled).
func handleTxnAbort(st *migdState, req *remoteReq) *remoteResp {
	txn, _, ok := parseTxnArgs(req.Args)
	if !ok {
		return &remoteResp{Status: -1, Err: "bad txabort request"}
	}
	st.abortIfAbsent(txn)
	return &remoteResp{Status: 0}
}

// resolveTxn asks dest's migd what became of txn, with retries. It
// returns the recorded status, or -1 when aborting is provably safe:
// the destination answered "unknown" (handlers run synchronously inside
// the delivered request, so no restart for txn ever ran), it is down (a
// crash took any copy with it), or it stayed unreachable through every
// attempt (then no commit was ever confirmed to anyone).
func resolveTxn(t *sim.Task, host *netsim.Host, dest string, txn uint32) int {
	if txn == 0 {
		return -1
	}
	req := encode(&remoteReq{Cmd: cmdTxQuery, Args: []string{strconv.FormatUint(uint64(txn), 10), "1"}})
	for i := 0; i < txnResolveAttempts; i++ {
		if i > 0 && t != nil {
			t.Sleep(backoffDelay(i - 1))
		}
		raw, err := host.Call(t, dest, MigdPort, req)
		if err == errno.EHOSTDOWN {
			return -1
		}
		if err != nil {
			continue
		}
		var resp remoteResp
		if decode(raw, &resp) != nil {
			continue
		}
		if resp.Output == txnSettled {
			return resp.Status
		}
		return -1
	}
	return -1
}

// newTxnID derives a transaction id from the simulation clock and the
// victim's pid — unique per migration (one victim migrates once at a
// time), stable across the client's retries, and deterministic for a
// fixed seed (no wall clock, ever).
func newTxnID(sys *kernel.Sys, pid int) uint32 {
	x := uint64(sys.Gettime())*2654435761 + uint64(pid)*40503 + uint64(sys.Getpid())
	txn := uint32(x ^ x>>32)
	if txn == 0 {
		txn = 1
	}
	return txn
}

// probeAttempts bounds ProbeAlive's resends. At a 20% message-drop rate
// a request/response pair fails with probability ~0.36, so six attempts
// misdeclare a live host dead with probability ~2e-3; the guardian's
// post-arbitration freshness re-check covers the rest.
const probeAttempts = 6

// ProbeAlive asks whether peer is alive over the migd transaction port —
// a channel independent of the heartbeat path, which is what makes it
// useful as the ha guardian's arbitration probe. Any answer at all
// proves life, ECONNREFUSED included (something routed the refusal);
// EHOSTDOWN is netsim's definitive crash verdict, and silence through
// every retry means no evidence of life.
func ProbeAlive(t *sim.Task, from *netsim.Host, peer string) bool {
	req := encode(&remoteReq{Cmd: cmdTxQuery, Args: []string{"1", "1"}})
	var err error
	for i := 0; i < probeAttempts; i++ {
		if i > 0 && t != nil {
			t.Sleep(backoffDelay(i - 1))
		}
		_, err = from.Call(t, peer, MigdPort, req)
		if err == nil || err == errno.ECONNREFUSED {
			return true
		}
		if err == errno.EHOSTDOWN {
			return false
		}
	}
	return false
}

// MigrateRemote runs one classic migration transaction from src to dst,
// driven third-party through src's migd — the message-passing interface
// the ha-aware policy layer (Balancer, Nightd) uses instead of touching
// peer kernels. It runs as root (the policy daemons are system services)
// and returns the pid the process runs under on dst. A pid of 0 with a
// nil error means the migration committed but the new pid was lost to a
// duplicate-suppressed retry; the caller learns it from the next
// heartbeat's OldPID chain.
func MigrateRemote(t *sim.Task, from *netsim.Host, src string, pid int, dst string) (int, error) {
	txn := policyTxnID(t, pid)
	req := &remoteReq{
		UID: 0, GID: 0,
		Cmd: cmdTxMigrate,
		Args: []string{strconv.FormatUint(uint64(txn), 10),
			strconv.Itoa(pid), dst},
	}
	return policyTxn(t, from, src, MigdPort, txn, pid, "classic "+src+" -> "+dst, encode(req))
}

// StreamMigrateRemote is MigrateRemote over the streaming pre-copy path:
// one transaction against src's migd on the precopy port, adaptive rounds,
// the given wire mode — under the default mode the transfer rides the
// session dedup tables and, where the hosts' page stores are enabled, the
// cross-session store refs. The controller's drains use this.
func StreamMigrateRemote(t *sim.Task, from *netsim.Host, src string, pid int, dst string, wire core.WireMode) (int, error) {
	txn := policyTxnID(t, pid)
	req := &precopyReq{
		UID: 0, GID: 0,
		PID: pid, Dest: dst, Rounds: -1, Txn: txn,
		Wire: byte(wire),
	}
	return policyTxn(t, from, src, MigdPrecopyPort, txn, pid, "streaming "+src+" -> "+dst, encode(req))
}

// policyTxnID derives a policy-layer transaction id from the clock and the
// pid; never 0, which migd refuses.
func policyTxnID(t *sim.Task, pid int) uint32 {
	txn := uint32(uint64(t.Now())*2654435761 + uint64(pid)*40503)
	if txn == 0 {
		txn = 1
	}
	return txn
}

// policyTxn sends one encoded migration request to src's migd on port,
// under a root span for txn, and maps the answer to the new pid or an
// errno.
func policyTxn(t *sim.Task, from *netsim.Host, src string, port int, txn uint32, pid int, detail string, req []byte) (int, error) {
	var tr *obs.Tracer
	if reg := from.Network().Obs(); reg != nil {
		tr = reg.Tracer
	}
	root := tr.Root(txn, "migration", from.Name(), pid, t.Now())
	if root != nil {
		root.Detail = detail + " (policy)"
	}
	raw, err := callRetry(t, from, src, port, req, txnCallAttempts)
	if err != nil {
		root.EndDetail(t.Now(), "aborted: "+err.Error())
		return 0, err
	}
	var resp remoteResp
	if derr := decode(raw, &resp); derr != nil {
		root.EndDetail(t.Now(), "aborted: bad response")
		return 0, derr
	}
	if resp.Status != 0 {
		root.EndDetail(t.Now(), "aborted: "+resp.Err)
		if resp.Err == errno.EPERM.Error() {
			return 0, errno.EPERM
		}
		if resp.Err == errno.ESRCH.Error() {
			return 0, errno.ESRCH
		}
		return 0, errno.EIO
	}
	root.EndDetail(t.Now(), "committed")
	return resp.PID, nil
}

// migrateTxn is the transactional client shared by fmigrate and rmigrate:
// run one migration as a transaction against the source migd, retrying
// the whole transaction — same id, every verb idempotent — with capped
// exponential backoff. Returns the final status and an error message.
func migrateTxn(sys *kernel.Sys, host *netsim.Host, pid int, from, to string, streaming bool, rounds, attempts int, wire core.WireMode) (int, string) {
	txn := newTxnID(sys, pid)
	p := sys.Proc()
	m := p.M
	now := func() sim.Time { return p.Task().Now() }
	mode := "classic"
	if streaming {
		mode = "streaming"
	}
	// The whole transaction is one root span; re-attempts annotate it
	// rather than forking a second trace. The handlers on the source and
	// destination attach their phases to the same txn id.
	root := m.Trace.Root(txn, "migration", m.Name, pid, now())
	if root != nil {
		root.Detail = mode + " " + from + " -> " + to
	}
	retries := m.Obs.Counter("migd.client_retries")
	backoffUS := m.Obs.Counter("migd.backoff_wait_us")
	lastErr := "migration failed"
	status := -1
	for i := 0; i < attempts; i++ {
		if i > 0 {
			m.Trace.Retry(txn)
			d := backoffDelay(i - 1)
			retries.Inc()
			backoffUS.Add(int64(d))
			sys.Sleep(d)
		}
		asp := m.Trace.Child(txn, "attempt", m.Name, pid, now())
		var raw []byte
		var err error
		if streaming {
			raw, err = host.Call(nil, from, MigdPrecopyPort, encode(&precopyReq{
				UID: sys.Getuid(), GID: sys.Proc().Creds.GID,
				PID: pid, Dest: to, Rounds: rounds, Txn: txn,
				Wire: byte(wire),
			}))
		} else {
			raw, err = host.Call(nil, from, MigdPort, encode(&remoteReq{
				UID: sys.Getuid(), GID: sys.Proc().Creds.GID,
				Cmd: cmdTxMigrate,
				Args: []string{strconv.FormatUint(uint64(txn), 10),
					strconv.Itoa(pid), to},
			}))
		}
		if err != nil {
			lastErr = from + ": " + err.Error()
			asp.EndDetail(now(), lastErr)
			if !retryable(err) {
				root.EndDetail(now(), "aborted: "+lastErr)
				m.Obs.Counter("migd.client_aborts").Inc()
				return -1, lastErr
			}
			continue
		}
		var resp remoteResp
		if decode(raw, &resp) != nil {
			lastErr = from + ": bad response"
			asp.EndDetail(now(), lastErr)
			continue
		}
		if resp.Status == 0 {
			asp.EndDetail(now(), "committed")
			root.EndDetail(now(), "committed")
			m.Obs.Counter("migd.client_commits").Inc()
			return 0, ""
		}
		status = resp.Status
		if resp.Err != "" {
			lastErr = resp.Err
		}
		asp.EndDetail(now(), lastErr)
		// Permission and existence failures are permanent; retrying
		// cannot change them.
		if resp.Err == errno.EPERM.Error() || resp.Err == errno.ESRCH.Error() {
			break
		}
	}
	root.EndDetail(now(), "aborted: "+lastErr)
	m.Obs.Counter("migd.client_aborts").Inc()
	return status, lastErr
}
