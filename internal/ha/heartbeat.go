// Package ha is the cluster availability control plane: the layer that
// notices where load is and when a machine dies, which the paper's §8
// applications (load balancing, checkpointing long computations) take for
// granted. Each host runs three cooperating daemons on top of netsim:
//
//   - hbd beacons liveness and its run-queue length. Each interval's
//     beacons go to k = ⌈log₂N⌉+2 peers (every peer, in a cluster that
//     small) chosen by a deterministic shuffle of the engine PRNG — O(N·k)
//     messages per interval instead of O(N²). Each beacon doubles as a
//     probe: a failed one suspects the peer. Beacons piggyback up to k
//     summaries of news — state changes only: suspicions, refutations,
//     rebirths — which reaches everyone in O(log N / log k) intervals.
//     There is no timeout at any cluster size. While a node's roster is
//     incomplete it also pulls, once an interval, the members it lacks from
//     a random peer: it sends a salted Bloom digest of what it holds, and
//     the reply carries only what the digest does not claim. hbd also
//     answers census queries: a peer that wants to know which processes
//     run here asks (Node.Census), and the reply lists them.
//   - guardd (source role) takes periodic incremental checkpoints of
//     processes registered for protection — the PR 1 dirty-page stream
//     format reused as delta checkpoints — and spools them to a buddy
//     host.
//   - guardd (buddy role) watches the membership table; when a protected
//     process's home goes silent it arbitrates over an independent
//     channel (the migd transaction port) and, only when the host is
//     confirmed dead, restarts the newest committed checkpoint locally.
//
// The policy layer (apps.Balancer, apps.NightScheduler) consumes the
// disseminated view and asks hosts for their censuses instead of
// dereferencing peer Machine structs, making it honest about what a real
// distributed system could know.
package ha

import (
	"encoding/binary"
	"errors"

	"procmig/internal/core"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// Control-plane ports, continuing the /etc/services-style numbering the
// migration daemons use (515-517).
const (
	HBPort         = 520 // hbd: heartbeat beacons
	GuardPort      = 521 // guardd control verbs (release)
	GuardSpoolPort = 522 // guardd checkpoint streams (netsim stream port)
	MemberSyncPort = 523 // hbd anti-entropy: digest-then-delta roster pull
	CensusPort     = 524 // hbd: a host's proc census, on request
)

// HeartbeatMagic continues the paper's octal numbering: 444 stack, 445
// files, 446 stream hello, 447 heartbeat.
const HeartbeatMagic = 0o447

// MemberSummary is gossip about a third party: what the sender's
// membership table says about another host. Age is how long before the
// beacon was sent that the sender last heard from the member, so the
// receiver can reconstruct a liveness bound on its own clock without the
// hosts sharing one. Inc is the member's incarnation as the sender knows
// it: news about an older incarnation is void at the receiver.
type MemberSummary struct {
	Host    string
	Seq     uint32
	Inc     uint32
	Load    int
	Age     sim.Duration
	Suspect bool // the sender believes this member is dead (probe failed)
}

// Heartbeat is one hbd beacon. Inc is the sender's incarnation number: 0
// for a first boot, bumped on every revival, so receivers can tell a
// reborn host's fresh state (sequence numbers restart at 1) from a stale
// replay of its previous life.
type Heartbeat struct {
	Host      string
	Seq       uint32
	Inc       uint32
	Load      int             // run-queue length (kernel.Machine.Load)
	Summaries []MemberSummary // piggybacked gossip (optional on the wire)
}

// hbHeaderWire is the encoded size of a heartbeat's fixed fields (magic,
// host length, seq, inc, load), less the host name.
const hbHeaderWire = 2 + 2 + 4 + 4 + 4

var errBadHeartbeat = errors.New("ha: bad heartbeat")

// hbAck is the shared one-byte delivery ack — never mutated, so every
// beacon response reuses it instead of allocating.
var hbAck = []byte{1}

// AppendTo serializes the heartbeat onto b and returns the extended slice;
// passing a reused scratch buffer makes steady-state encoding
// allocation-free. The summary block is emitted only when non-empty, so
// a beacon with no news is its header alone.
func (hb *Heartbeat) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, HeartbeatMagic)
	b = binary.BigEndian.AppendUint16(b, uint16(len(hb.Host)))
	b = append(b, hb.Host...)
	b = binary.BigEndian.AppendUint32(b, hb.Seq)
	b = binary.BigEndian.AppendUint32(b, hb.Inc)
	b = binary.BigEndian.AppendUint32(b, uint32(hb.Load))
	if len(hb.Summaries) > 0 {
		b = binary.BigEndian.AppendUint16(b, uint16(len(hb.Summaries)))
		for _, s := range hb.Summaries {
			b = appendSummary(b, s)
		}
	}
	return b
}

// summaryWire is the encoded size of one MemberSummary less its host name.
const summaryWire = 2 + 4 + 4 + 4 + 8 + 1

// appendSummary encodes one member summary onto b: the single summary
// encoder behind beacons and anti-entropy sync.
func appendSummary(b []byte, s MemberSummary) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s.Host)))
	b = append(b, s.Host...)
	b = binary.BigEndian.AppendUint32(b, s.Seq)
	b = binary.BigEndian.AppendUint32(b, s.Inc)
	b = binary.BigEndian.AppendUint32(b, uint32(s.Load))
	b = binary.BigEndian.AppendUint64(b, uint64(s.Age))
	var flag byte
	if s.Suspect {
		flag = 1
	}
	return append(b, flag)
}

// Encode serializes a heartbeat into fresh storage.
func (hb *Heartbeat) Encode() []byte {
	return hb.AppendTo(make([]byte, 0, hbHeaderWire+len(hb.Host)+2+len(hb.Summaries)*29))
}

// DecodeHeartbeat parses a beacon. Counts are validated against the
// remaining bytes before any allocation, so hostile input cannot demand
// memory. Bad magic, truncation, and trailing garbage are rejected.
func DecodeHeartbeat(raw []byte) (*Heartbeat, error) {
	hb := &Heartbeat{}
	p, _, err := decodeHBMain(raw, hb, nil)
	if err != nil {
		return nil, err
	}
	if p == len(raw) {
		return hb, nil // no news: no summary block
	}
	ns, err := validateSummaries(raw, p)
	if err != nil {
		return nil, err
	}
	p += 2
	for i := 0; i < ns; i++ {
		hl := int(binary.BigEndian.Uint16(raw[p:]))
		hb.Summaries = append(hb.Summaries, MemberSummary{
			Host:    string(raw[p+2 : p+2+hl]),
			Seq:     binary.BigEndian.Uint32(raw[p+2+hl:]),
			Inc:     binary.BigEndian.Uint32(raw[p+2+hl+4:]),
			Load:    int(int32(binary.BigEndian.Uint32(raw[p+2+hl+8:]))),
			Age:     sim.Duration(binary.BigEndian.Uint64(raw[p+2+hl+12:])),
			Suspect: raw[p+2+hl+20] == 1,
		})
		p += 2 + hl + 21
	}
	return hb, nil
}

// decodeHBMain parses the fixed header and host, returning the offset
// where the optional summary block begins and the sender's state when ms
// (which may be nil) already knows the host. The sender's name is then the
// table's own copy, so a beacon from a known sender allocates no string.
func decodeHBMain(raw []byte, hb *Heartbeat, ms *Membership) (int, *memberState, error) {
	if len(raw) < hbHeaderWire {
		return 0, nil, errBadHeartbeat
	}
	if binary.BigEndian.Uint16(raw) != HeartbeatMagic {
		return 0, nil, errBadHeartbeat
	}
	hostLen := int(binary.BigEndian.Uint16(raw[2:]))
	if len(raw) < hbHeaderWire+hostLen {
		return 0, nil, errBadHeartbeat
	}
	st, host := ms.sender(raw[4 : 4+hostLen])
	hb.Host = host
	p := 4 + hostLen
	hb.Seq = binary.BigEndian.Uint32(raw[p:])
	hb.Inc = binary.BigEndian.Uint32(raw[p+4:])
	hb.Load = int(int32(binary.BigEndian.Uint32(raw[p+8:])))
	return p + 12, st, nil
}

// validateSummaries checks the whole summary block at offset p — count,
// per-entry bounds, flag values, exact end — before any byte is consumed,
// so a consumer that streams entries into live state never applies half a
// corrupt message. A zero count is rejected: encoders omit the block
// instead, which keeps the encoding canonical (decode∘encode is the
// identity).
func validateSummaries(raw []byte, p int) (int, error) {
	if len(raw)-p < 2 {
		return 0, errBadHeartbeat
	}
	ns := int(binary.BigEndian.Uint16(raw[p:]))
	p += 2
	if ns == 0 {
		return 0, errBadHeartbeat
	}
	for i := 0; i < ns; i++ {
		if len(raw)-p < 2 {
			return 0, errBadHeartbeat
		}
		hl := int(binary.BigEndian.Uint16(raw[p:]))
		if len(raw)-p < 2+hl+21 {
			return 0, errBadHeartbeat
		}
		if raw[p+2+hl+20] > 1 {
			return 0, errBadHeartbeat
		}
		p += 2 + hl + 21
	}
	if p != len(raw) {
		return 0, errBadHeartbeat
	}
	return ns, nil
}

// decodeHeartbeatObserve is the hbd hot path: identical wire validation to
// DecodeHeartbeat, but summaries are streamed straight into the
// membership — one index probe per entry, zero allocations for known
// hosts — instead of being materialized on the Heartbeat. hb.Summaries is
// left empty. Returns the number of summaries observed and the sender's
// state as the header decode resolved it, for Membership.observe.
func decodeHeartbeatObserve(raw []byte, hb *Heartbeat, ms *Membership, now sim.Time) (int, *memberState, error) {
	p, st, err := decodeHBMain(raw, hb, ms)
	if err != nil {
		return 0, nil, err
	}
	hb.Summaries = hb.Summaries[:0]
	if p == len(raw) {
		return 0, st, nil
	}
	ns, err := validateSummaries(raw, p)
	if err != nil {
		return 0, nil, err
	}
	p += 2
	for i := 0; i < ns; i++ {
		hl := int(binary.BigEndian.Uint16(raw[p:]))
		age := sim.Duration(binary.BigEndian.Uint64(raw[p+2+hl+12:]))
		ms.ObserveSummaryBytes(raw[p+2:p+2+hl],
			binary.BigEndian.Uint32(raw[p+2+hl:]),
			binary.BigEndian.Uint32(raw[p+2+hl+4:]),
			int(int32(binary.BigEndian.Uint32(raw[p+2+hl+8:]))),
			raw[p+2+hl+20] == 1,
			now-sim.Time(age), now)
		p += 2 + hl + 21
	}
	return ns, st, nil
}

// Config tunes one node's control-plane daemons. Zero values take the
// defaults.
type Config struct {
	Interval     sim.Duration // beacon period (default 1s)
	CkptInterval sim.Duration // delta-checkpoint period (default 5s)
	Incarnation  uint32       // this boot's incarnation (0 first boot; bump on revival)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = sim.Second
	}
	if c.CkptInterval <= 0 {
		c.CkptInterval = 5 * sim.Second
	}
	return c
}

// StatSource is what hbd reads from its own host to build a beacon and to
// answer a census query. A kernel.Machine is the real source; scale
// scenarios substitute synthetic ones so a 1,000-host cluster need not
// boot 1,000 kernels.
type StatSource interface {
	HostName() string
	RunQueueLen() int
	// AppendProcStats appends the migratable run-queue entries — VM
	// processes, and spawned ones whose image is still loading — to dst
	// and returns it (scratch-friendly: dst is reused across queries).
	AppendProcStats(now sim.Time, dst []ProcStat) []ProcStat
}

// machineSource adapts a kernel.Machine to StatSource.
type machineSource struct{ m *kernel.Machine }

func (s machineSource) HostName() string { return s.m.Name }
func (s machineSource) RunQueueLen() int { return s.m.Load() }
func (s machineSource) AppendProcStats(now sim.Time, dst []ProcStat) []ProcStat {
	for _, p := range s.m.Procs() {
		if p.State != kernel.ProcRunning || (p.VM == nil && !p.Spawning) {
			continue
		}
		oldPID := 0
		if p.Migrated {
			oldPID = p.OldPID
		}
		dst = append(dst, ProcStat{
			PID: p.PID, OldPID: oldPID,
			Age: sim.Duration(now - p.StartedAt),
			CPU: p.UTime,
		})
	}
	return dst
}

// Node is one host's slice of the control plane: its hbd, its membership
// view, and (when started on a full machine) its guardian.
type Node struct {
	src     StatSource
	m       *kernel.Machine // nil when started via StartSource
	host    *netsim.Host
	eng     *sim.Engine
	cfg     Config
	members *Membership
	Guard   *Guard

	peers  []string
	fanout int // beacons per interval, and news summaries per beacon

	// hot-path scratch: the engine serializes actors, so one of each per
	// node suffices.
	pick   []int  // peer permutation for the partial shuffle
	encBuf []byte // beacon and sync encode buffer
	txHB   Heartbeat
	rxHB   Heartbeat
	digest core.StoreSummary // sync request digest
	procs  []ProcStat        // census answer scratch

	cBeaconsOut *obs.Counter
	cBeaconsIn  *obs.Counter
	cBeaconFail *obs.Counter
	cSummaries  *obs.Counter
	cSyncs      *obs.Counter

	seq     uint32
	inc     uint32 // incarnation, from Config (bumped externally on revival)
	stopped bool
}

// Start wires the full control plane into a machine: listeners for
// heartbeats, census queries and guardian traffic, plus the background
// beacon/checkpoint/monitor loops. Call SetPeers before the engine runs;
// call Stop to let the engine quiesce (the loops otherwise beacon
// forever).
func Start(m *kernel.Machine, host *netsim.Host, cfg Config) (*Node, error) {
	n, err := StartSource(m.Engine(), host, machineSource{m}, m.Obs, cfg)
	if err != nil {
		return nil, err
	}
	n.m = m
	n.Guard = newGuard(n)
	if err := n.Guard.listen(); err != nil {
		return nil, err
	}
	eng := m.Engine()
	stagger := sim.Duration(hashName(m.Name)%97) * sim.Millisecond
	eng.GoAfter("guardd@"+m.Name, stagger, n.Guard.checkpointLoop)
	eng.GoAfter("guardmon@"+m.Name, stagger, n.Guard.monitorLoop)
	return n, nil
}

// StartSource wires only the heartbeat/membership slice of the control
// plane around an arbitrary StatSource — no guardian, no kernel. scope may
// be nil to skip metrics.
func StartSource(eng *sim.Engine, host *netsim.Host, src StatSource, scope *obs.Scope, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	n := &Node{
		src: src, host: host, eng: eng, cfg: cfg,
		members: NewMembership(src.HostName()),
		inc:     cfg.Incarnation,
	}
	if scope != nil {
		n.cBeaconsOut = scope.Counter("hb.beacons_out")
		n.cBeaconsIn = scope.Counter("hb.beacons_in")
		n.cBeaconFail = scope.Counter("hb.beacon_fail")
		n.cSummaries = scope.Counter("hb.summaries_in")
		n.cSyncs = scope.Counter("hb.syncs_out")
	}
	if err := host.Listen(HBPort, n.handleBeacon); err != nil {
		return nil, err
	}
	if err := host.Listen(MemberSyncPort, n.handleSync); err != nil {
		return nil, err
	}
	if err := host.Listen(CensusPort, n.handleCensus); err != nil {
		return nil, err
	}
	// Staggered start: machines boot at slightly different phases, like
	// the staggered pid counters — and simultaneous cluster-wide beacon
	// bursts would serialize artificially on the shared engine.
	stagger := sim.Duration(hashName(src.HostName())%97) * sim.Millisecond
	eng.GoAfter("hbd@"+src.HostName(), stagger, n.beaconLoop)
	return n, nil
}

// handleBeacon is the HBPort listener: decode into per-node scratch, fold
// the sender's state and its piggybacked gossip into the table. The
// handler never parks, so the scratch cannot be observed mid-update.
func (n *Node) handleBeacon(t *sim.Task, raw []byte) []byte {
	now := n.now(t)
	nsumm, st, err := decodeHeartbeatObserve(raw, &n.rxHB, n.members, now)
	if err != nil {
		return nil
	}
	n.members.observe(st, &n.rxHB, now)
	if n.cBeaconsIn != nil {
		n.cBeaconsIn.Inc()
		n.cSummaries.Add(int64(nsumm))
	}
	return hbAck // delivery ack; losing it costs only the sender
}

// SetPeers tells the node who else is in the cluster. The fanout is
// ⌈log₂N⌉+2, capped at the peer count: each interval's beacons go to a
// fanout-subset of the peers (all of them, when it covers every peer),
// carry up to fanout summaries of news, and each news item is
// re-broadcast by fanout beacons. Only failed probes and suspicion news
// end a member's liveness.
func (n *Node) SetPeers(peers []string) {
	n.peers = append(n.peers[:0], peers...)
	n.fanout = min(ceilLog2(len(peers)+1)+2, len(peers))
	n.members.setGossipParams(n.fanout, len(peers)+1)
	n.pick = n.pick[:0]
	for i := range n.peers {
		n.pick = append(n.pick, i)
	}
}

// Members returns the node's membership view.
func (n *Node) Members() *Membership { return n.members }

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Fanout reports how many peers each beacon interval reaches; it is also
// the most news summaries one beacon carries.
func (n *Node) Fanout() int { return n.fanout }

// Incarnation reports which boot of the host this node represents.
func (n *Node) Incarnation() uint32 { return n.inc }

// Stop shuts the node's daemon loops down at their next tick, letting
// Engine.Run quiesce. Idempotent.
func (n *Node) Stop() { n.stopped = true }

// Shutdown stops the daemons and releases the node's network ports, so a
// successor node — a revived host's fresh boot, with a bumped incarnation —
// can bind them. The membership table and guardian state die with the
// node, exactly as a reboot would lose them.
func (n *Node) Shutdown() {
	n.Stop()
	n.host.Unlisten(HBPort)
	n.host.Unlisten(MemberSyncPort)
	n.host.Unlisten(CensusPort)
	if n.Guard != nil {
		n.host.Unlisten(GuardPort)
		n.host.UnlistenStream(GuardSpoolPort)
	}
}

func (n *Node) now(t *sim.Task) sim.Time {
	if t != nil {
		return t.Now()
	}
	return n.eng.Now()
}

// beacon builds this instant's heartbeat in the node's scratch — the only
// host structures the control plane ever reads are its own.
func (n *Node) beacon(now sim.Time) *Heartbeat {
	n.seq++
	hb := &n.txHB
	hb.Host = n.src.HostName()
	hb.Seq = n.seq
	hb.Inc = n.inc
	hb.Load = n.src.RunQueueLen()
	hb.Summaries = n.members.appendGossip(hb.Summaries[:0], n.fanout, now)
	return hb
}

// choosePeers selects this interval's beacon targets into n.pick[:fanout]
// via a partial Fisher-Yates shuffle drawn from the engine PRNG —
// deterministic per seed. When fanout covers all peers no draws are made
// and the permutation is left in place: every peer is a target anyway,
// and the seeded runs of small clusters replay from that draw order.
func (n *Node) choosePeers() []int {
	if n.fanout >= len(n.peers) {
		return n.pick
	}
	for i := 0; i < n.fanout; i++ {
		j := i + int(n.eng.Rand()%uint64(len(n.pick)-i))
		n.pick[i], n.pick[j] = n.pick[j], n.pick[i]
	}
	return n.pick[:n.fanout]
}

// beaconLoop is hbd: every Interval, beacon to this interval's peers. A
// failed beacon is a failed probe and suspects the peer, at every cluster
// size. A beacon to a dead host costs the sender the network timeout,
// exactly as a real datagram-and-ack heartbeat would. While the roster is
// incomplete each round starts with an anti-entropy sync.
func (n *Node) beaconLoop(t *sim.Task) {
	for !n.stopped {
		t.Sleep(n.cfg.Interval)
		if n.stopped {
			return
		}
		if n.host.Down() {
			continue // a partitioned host cannot beacon (nor hear itself)
		}
		now := t.Now()
		hb := n.beacon(now)
		raw := hb.AppendTo(n.encBuf[:0])
		n.encBuf = raw
		encAt := now
		n.members.Observe(hb, now) // the local view always includes self
		if n.members.Len() < len(n.peers)+1 {
			n.syncExchange(t)
			now = t.Now()
		}
		for _, pi := range n.choosePeers() {
			if sendAt := t.Now(); sendAt != encAt {
				// Summary ages are deltas against the encode clock, and
				// every Call below sleeps at least a round trip — a Call
				// to a dead peer stalls a full network timeout. Sending
				// the stale bytes would make receivers reconstruct
				// hear-times inflated by the stall, manufacturing
				// post-mortem liveness that falsely refutes suspicion.
				// Re-age the same summary set (no reselection — gossip
				// budgets were already spent) and re-encode per send.
				for i := range hb.Summaries {
					hb.Summaries[i].Age += sim.Duration(sendAt - encAt)
				}
				raw = hb.AppendTo(n.encBuf[:0])
				n.encBuf = raw
				encAt = sendAt
			}
			_, err := n.host.Call(t, n.peers[pi], HBPort, raw) // best effort, by design
			if err != nil {
				// The beacon doubled as a probe and the peer is dead or
				// unreachable: suspect it and let the piggyback carry the
				// news.
				n.members.Suspect(n.peers[pi], t.Now())
			}
			if n.cBeaconsOut != nil {
				n.cBeaconsOut.Inc()
				if err != nil {
					n.cBeaconFail.Inc()
				}
			}
		}
	}
}

// syncExchange is boot-time anti-entropy, a digest-then-delta pull in the
// Scuttlebutt mold: send one random peer this node's header and a Bloom
// digest of its roster, and fold in the reply — the members the digest did
// not claim. Per-beacon piggybacking carries only state changes, and
// direct beacons reach k peers an interval, so without sync the last few
// peers would take ~N/k intervals to show up; pulling closes the roster
// in O(log N) rounds, and the beaconLoop guard stops it once the roster is
// complete, so its steady-state cost is zero. The digest is salted with
// this beacon's sequence number: a false positive hides a missing member
// for one exchange, never for every peer forever.
func (n *Node) syncExchange(t *sim.Task) {
	peer := n.peers[int(n.eng.Rand()%uint64(len(n.peers)))]
	raw := n.appendSyncRequest(n.encBuf[:0])
	n.encBuf = raw
	if n.cSyncs != nil {
		n.cSyncs.Inc()
	}
	resp, err := n.host.Call(t, peer, MemberSyncPort, raw)
	if err != nil {
		// Like a beacon, the sync doubled as a probe.
		n.members.Suspect(peer, t.Now())
		return
	}
	rnow := n.now(t)
	_, st, err := decodeHeartbeatObserve(resp, &n.rxHB, n.members, rnow)
	if err != nil {
		return
	}
	n.members.observe(st, &n.rxHB, rnow)
}

// handleSync is the MemberSyncPort listener: fold the asker's header in,
// then reply with our header and every member the asker's digest does not
// claim, in name order. The reply is freshly allocated, at its exact size
// (a first pass over the roster picks the members): the caller reads it
// after this handler returns, possibly after another sync has reused any
// shared scratch.
func (n *Node) handleSync(t *sim.Task, raw []byte) []byte {
	now := n.now(t)
	st, d, err := decodeSyncRequest(raw, &n.rxHB, n.members)
	if err != nil {
		return nil
	}
	n.members.observe(st, &n.rxHB, now)
	miss := n.members.missing(&d, n.rxHB.Host)
	hb := n.syncHeader()
	b := hb.AppendTo(make([]byte, 0, hbHeaderWire+len(hb.Host)+summaryBlockSize(miss)))
	return n.members.appendSummaryBlock(b, miss, now)
}

// appendSyncRequest encodes this node's sync request onto b: its header,
// then a digest of its roster salted with its beacon sequence number.
func (n *Node) appendSyncRequest(b []byte) []byte {
	hb := n.syncHeader()
	n.members.digest(&n.digest, hb.Seq)
	return encodeSyncRequest(b, &hb, &n.digest)
}

// syncHeader is the beacon header both halves of a sync carry: no news.
func (n *Node) syncHeader() Heartbeat {
	return Heartbeat{Host: n.src.HostName(), Seq: n.seq, Inc: n.inc, Load: n.src.RunQueueLen()}
}

var errBadSyncRequest = errors.New("ha: bad sync request")

// encodeSyncRequest encodes a sync request onto b: hb's header — its
// summaries must be empty — then the digest d in the page-store summary
// encoding, whose Gen is the salt.
func encodeSyncRequest(b []byte, hb *Heartbeat, d *core.StoreSummary) []byte {
	return d.AppendTo(hb.AppendTo(b))
}

// decodeSyncRequest parses a sync request into hb (naming the sender with
// ms's copy of a known host, as decodeHBMain does) and returns the
// sender's state (nil if ms does not know it) and the digest, whose bitmap
// aliases raw. It accepts only what encodeSyncRequest writes: a header,
// then exactly one digest and nothing after it. The digest's bitmap may be
// at most core.StoreSummaryMaxBytes long, and a longer claimed length is
// refused before the bitmap is read.
func decodeSyncRequest(raw []byte, hb *Heartbeat, ms *Membership) (*memberState, core.StoreSummary, error) {
	p, st, err := decodeHBMain(raw, hb, ms)
	if err != nil {
		return nil, core.StoreSummary{}, err
	}
	d, err := core.DecodeStoreSummaryView(raw[p:])
	if err != nil {
		return nil, core.StoreSummary{}, errBadSyncRequest
	}
	return st, d, nil
}

// ceilLog2 returns ⌈log₂ n⌉ (0 for n ≤ 1).
func ceilLog2(n int) int {
	k, p := 0, 1
	for p < n {
		p <<= 1
		k++
	}
	return k
}

// hashName is a tiny FNV-1a over the host name, for deterministic phase
// staggering, txn-id salting and the membership index (no global state, no
// wall clock). It takes the name as a string or as its raw wire bytes.
func hashName[S string | []byte](s S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
