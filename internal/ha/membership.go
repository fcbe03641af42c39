package ha

import (
	"encoding/binary"
	"sort"

	"procmig/internal/core"
	"procmig/internal/sim"
)

// Membership is one host's view of the cluster, built from received
// heartbeats and from member summaries piggybacked on them (gossip).
// Failure detection has one mechanism at every cluster size, as in SWIM:
// there is no timeout, and a member stops being Alive only when a probe of
// it fails — a beacon or sync call came back dead — or when suspicion news
// of it arrives. The view is eventually consistent and can be wrong both
// ways — a suspect may be merely partitioned (the guardian arbitrates
// before acting) and a fresh member may have just crashed.
//
// Only state changes are news, as in SWIM: a suspicion, a refutation, a
// rebirth. Learning of a member is not — the host set is fixed by
// SetPeers, and boot-time anti-entropy sync pulls whatever the roster
// lacks — so a converged, quiet cluster piggybacks nothing at all.
//
// The table is built for 1,000-host clusters: states are updated in place
// (no per-beacon allocation once a member is known), reads go through
// ViewInto/Get into caller-owned rows, and the news queue selects which
// members to gossip about in O(k). Which processes run on a member is not
// in the table: a reader asks the member (Node.Census).
//
// Members are found through an open-addressed index rather than a Go
// map: a power-of-two slice of state pointers, at most half full, probed
// linearly from the low bits of the name's FNV-1a hash (cached on the
// state, so a name is hashed once per table). The low bits, because
// FNV-1a's high bits barely depend on a name's last bytes: names like
// h0000…h0499 would pile into one run. SetPeers tells the table the roster size, and
// the first member learned after it sizes the index and byName once for
// the whole roster; a map instead grows from empty through every bucket
// doubling on each of N nodes. Past that hint the index doubles. The index
// is never iterated — byName is the only order anything observes.
type Membership struct {
	self   string
	index  []*memberState // open-addressed by hashName(host); nil slots are free
	byName []*memberState // sorted by host name
	hint   int            // roster size from SetPeers: the first insertion sizes for it
	budget int            // per-item retransmission budget
	mark   uint64         // appendGossip call stamp, for O(1) dedupe
	// news is the FIFO of members with unspent retransmission budget. An
	// explicit queue — not a recency scan — is what makes dissemination
	// survive scale: a node digests hundreds of summaries per interval, so
	// any "recent updates" window has churned completely between two of
	// its own beacons, and news adopted early in an interval would
	// silently fall out of a windowed scan before it was ever forwarded.
	news []*memberState
	head int            // news[head:] is the queue
	miss []*memberState // missing's scratch, reused across syncs
}

type memberState struct {
	host string
	hash uint64 // hashName(host), computed once at first sight
	seq  uint32
	// inc is the freshest incarnation seen for this member. A revived host
	// bumps its incarnation, so receivers can tell a rebirth (sequence
	// numbers restart, old suspicion void) from a stale replay of the old
	// life: any beacon or summary carrying a lower incarnation is ignored
	// outright, and a higher one resets seq and clears suspicion exactly
	// once, however many stale suspect summaries are still circulating.
	inc       uint32
	load      int
	lastHeard sim.Time
	// suspected is the probe-failure verdict: set when a beacon to the
	// member failed (or a peer gossiped that it did), cleared only by
	// proof of life newer than the suspicion — a direct beacon, or an
	// alive summary whose reconstructed heard-time is later than
	// suspectAt. The time comparison is what makes suspicion monotone:
	// every summary a member sent before dying reconstructs to a
	// heard-time before the suspicion arose, so replayed stale news can
	// never resurrect a dead member and observers see at most one
	// alive→suspect transition per real failure.
	suspected bool
	inQueue   bool // sitting in the news queue
	suspectAt sim.Time
	markGen   uint64 // last appendGossip call that included this member
	// gossipLeft is the remaining retransmission budget for this member's
	// latest news: granted on state changes — a suspicion, a refutation, a
	// rebirth — and spent once per beacon the member is
	// summarized in. Budgeted retransmission is what makes dissemination
	// an epidemic (each hop re-broadcasts to fanout peers) rather than a
	// subcritical recency race. Routine liveness advances deliberately earn
	// no budget: with no timeout there is nothing for them to keep alive,
	// and budgeting them would keep all N members contending for the
	// piggyback slots that state changes need.
	gossipLeft int
}

// Member is one row of the view at a given instant.
type Member struct {
	Host      string
	Seq       uint32
	Inc       uint32
	Load      int
	LastHeard sim.Time
	Alive     bool
	Suspected bool // probe-failure verdict (Alive is false while set)
}

// NewMembership creates an empty table for the named host. Node.SetPeers
// sizes its news budget and its roster hint once the cluster size is
// known.
func NewMembership(self string) *Membership {
	return &Membership{self: self}
}

// setGossipParams tunes dissemination: budget is how many beacons
// re-broadcast one piece of news — the fanout ⌈log₂N⌉+2, after SWIM's
// λ·log N rule: for an epidemic to reach all N members w.h.p. each adopter
// must retransmit ~log N times. roster is the cluster size, self included:
// the next member learned sizes the table for it. Nothing is allocated
// here, so starting a node costs the same whatever its cluster's size.
func (ms *Membership) setGossipParams(budget, roster int) {
	ms.budget = budget
	ms.hint = roster
}

// Len reports how many members the table knows (including self, once
// self-observed).
func (ms *Membership) Len() int { return len(ms.byName) }

// lookup returns host's state, or nil if the table has never heard of it.
// host may be the name's raw wire bytes: comparing them to a stored name
// copies nothing.
func lookup[S string | []byte](ms *Membership, host S) *memberState {
	if len(ms.index) == 0 {
		return nil
	}
	h := hashName(host)
	mask := uint64(len(ms.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if st := ms.index[i]; st == nil || st.hash == h && st.host == string(host) {
			return st
		}
	}
}

// state returns host's state, adding the host if it is new.
func (ms *Membership) state(host string) *memberState {
	if st := lookup(ms, host); st != nil {
		return st
	}
	return ms.insert(host)
}

// insert adds host, which the table does not hold, and returns its state.
// The first insertion after setGossipParams sizes byName and the index
// for the whole roster; past the hint, byName grows as append grows it
// and the index doubles.
func (ms *Membership) insert(host string) *memberState {
	st := &memberState{host: host, hash: hashName(host)}
	if cap(ms.byName) < ms.hint {
		ms.byName = append(make([]*memberState, 0, ms.hint), ms.byName...)
	}
	if need := 2 * max(len(ms.byName)+1, ms.hint); len(ms.index) < need {
		size := 1
		for size < need {
			size <<= 1
		}
		old := ms.index
		ms.index = make([]*memberState, size)
		for _, o := range old {
			if o != nil {
				ms.place(o)
			}
		}
	}
	ms.place(st)
	i := sort.Search(len(ms.byName), func(i int) bool { return ms.byName[i].host >= host })
	ms.byName = append(ms.byName, nil)
	copy(ms.byName[i+1:], ms.byName[i:])
	ms.byName[i] = st
	return st
}

// place puts st in the first free index slot on its probe sequence.
func (ms *Membership) place(st *memberState) {
	mask := uint64(len(ms.index) - 1)
	i := st.hash & mask
	for ms.index[i] != nil {
		i = (i + 1) & mask
	}
	ms.index[i] = st
}

// grant (re)arms st's retransmission budget for an alive-state
// transition and enqueues it for the next beacons' piggyback slots.
// Re-granting while queued just refreshes the budget: the queue holds a
// member at most once, and a summary always carries current state.
func (ms *Membership) grant(st *memberState) {
	st.gossipLeft = ms.budget
	if !st.inQueue {
		st.inQueue = true
		ms.news = append(ms.news, st)
	}
}

// Observe folds one directly received heartbeat into the table. Stale
// beacons (a sequence number at or below the freshest seen) still refresh
// liveness — a delayed duplicate proves the sender was alive when it sent —
// but never roll the advertised state backward.
func (ms *Membership) Observe(hb *Heartbeat, now sim.Time) { ms.observe(nil, hb, now) }

// observe is Observe given the sender's state as the header decode
// resolved it, so a beacon costs one lookup. A nil st means the sender
// was unknown then; a summary in the same message may have added it
// since, so it is looked up again.
func (ms *Membership) observe(st *memberState, hb *Heartbeat, now sim.Time) {
	if st == nil {
		st = lookup(ms, hb.Host)
	}
	known := st != nil
	if !known {
		st = ms.insert(hb.Host)
	}
	if known && hb.Inc < st.inc {
		return // a delayed beacon from a previous life proves nothing
	}
	if hb.Inc > st.inc {
		// A rebirth: the member restarted with a bumped incarnation, so
		// everything its old life advertised — sequence numbers, suspicion —
		// is void. Spread the news with urgency: stale suspicion of the old
		// incarnation must not strand the new one.
		st.inc = hb.Inc
		st.seq = 0
		if known {
			ms.grant(st)
		}
	}
	if st.suspected {
		// A direct beacon is proof of life: refute, and make the good news
		// spread as fast as the suspicion did.
		st.suspected = false
		ms.grant(st)
	}
	if now > st.lastHeard {
		st.lastHeard = now
	}
	if known && hb.Seq <= st.seq {
		return
	}
	st.seq = hb.Seq
	st.load = hb.Load
}

// Suspect records a failed probe of host: the caller beaconed to it and
// the call came back dead. The suspicion is stamped with the failure
// time, so only liveness evidence from after that instant clears it.
func (ms *Membership) Suspect(host string, now sim.Time) {
	if host == ms.self {
		return
	}
	st := ms.state(host)
	if st.suspected {
		return
	}
	st.suspected = true
	st.suspectAt = now
	ms.grant(st)
}

// ObserveSummary folds one gossiped third-party summary into the table.
// heard is the sender's claim of when the member was last heard (already
// converted to local virtual time); liveness only ever moves forward, so
// replaying old summaries cannot re-suspect a member (no flapping), and a
// member's own fresher beacons always win.
func (ms *Membership) ObserveSummary(s MemberSummary, heard, now sim.Time) {
	if s.Host == ms.self {
		return // self-liveness comes from beaconing, not hearsay
	}
	st := lookup(ms, s.Host)
	known := st != nil
	if !known {
		st = ms.insert(s.Host)
	}
	ms.observeSummary(st, known, s.Seq, s.Inc, s.Load, s.Suspect, heard, now)
}

// ObserveSummaryBytes is ObserveSummary keyed by the raw wire bytes of the
// host name: the lookup copies nothing, so in steady state (every host
// already known) processing a summary allocates nothing.
// This is the hbd hot path — at N=1000 a node digests hundreds of
// thousands of summaries per simulated second.
func (ms *Membership) ObserveSummaryBytes(host []byte, seq, inc uint32, load int, suspect bool, heard, now sim.Time) {
	if string(host) == ms.self {
		return // self-liveness comes from beaconing, not hearsay
	}
	st := lookup(ms, host)
	known := st != nil
	if !known {
		st = ms.insert(string(host))
	}
	ms.observeSummary(st, known, seq, inc, load, suspect, heard, now)
}

func (ms *Membership) observeSummary(st *memberState, known bool, seq, inc uint32, load int, suspect bool, heard, now sim.Time) {
	if heard > now {
		heard = now
	}
	if known && inc < st.inc {
		return // hearsay about a previous life, however fresh it claims to be
	}
	if inc > st.inc {
		// Second-hand rebirth news: void the old life's state. A suspicion
		// of the old incarnation dies here and cannot come back (any
		// further copies of it carry the old inc and are dropped above), so
		// a revived member is re-admitted exactly once.
		st.inc = inc
		st.seq = 0
		if st.suspected && !suspect {
			st.suspected = false
			ms.grant(st)
		}
	}
	if suspect {
		// Second-hand suspicion; heard is the reconstructed time the
		// suspicion arose. Adopt it only when it postdates our own last
		// direct or indirect sign of life — a member we have heard from
		// since cannot be declared dead by older news — and re-broadcast.
		if !st.suspected && heard > st.lastHeard {
			st.suspected = true
			st.suspectAt = heard
			ms.grant(st)
		}
		return
	}
	if st.suspected && heard > st.suspectAt {
		st.suspected = false
		ms.grant(st)
	}
	if heard > st.lastHeard {
		// A liveness advance is not news and gets no retransmission
		// budget — nor does learning of a member at all: nothing times out,
		// and budgeting either would keep members competing for the
		// piggyback slots that genuine state changes need.
		st.lastHeard = heard
	}
	if !known || seq > st.seq {
		st.seq = seq
		st.load = load
	}
}

// appendGossip appends up to p summaries of budgeted news — suspicions,
// refutations, rebirths — to dst. A quiet cluster piggybacks nothing.
// Self is skipped: the enclosing beacon already carries it. An item still
// holding budget after inclusion rotates to the tail, so concurrent pieces
// of news share the slots fairly; a spent item is dropped. Hitting an item
// already included in this very call means the queue has wrapped — stop
// rather than duplicate.
func (ms *Membership) appendGossip(dst []MemberSummary, p int, now sim.Time) []MemberSummary {
	if p <= 0 {
		return dst
	}
	ms.mark++
	base := len(dst)
	for len(dst)-base < p && ms.head < len(ms.news) {
		st := ms.news[ms.head]
		if st.markGen == ms.mark {
			break
		}
		ms.news[ms.head] = nil
		ms.head++
		if st.host == ms.self || st.gossipLeft <= 0 {
			st.inQueue = false
			continue
		}
		st.gossipLeft--
		st.markGen = ms.mark
		dst = append(dst, ms.summarize(st, now))
		if st.gossipLeft > 0 {
			ms.news = append(ms.news, st)
		} else {
			st.inQueue = false
		}
	}
	if ms.head == len(ms.news) {
		ms.news = ms.news[:0]
		ms.head = 0
	} else if ms.head >= 64 && 2*ms.head >= len(ms.news) {
		n := copy(ms.news, ms.news[ms.head:])
		ms.news = ms.news[:n]
		ms.head = 0
	}
	return dst
}

// memberKey is a member's key in a sync digest: its host name (by its
// hashName, which the table caches per member), incarnation and suspicion
// flag under salt. A responder returns a member
// whenever its own key for it is absent from the asker's digest, so the
// asker gets it both when it lacks the member and when it holds another
// incarnation or suspicion state. The salt changes every exchange and
// mixes through every bit, so a Bloom false positive that hides a member
// in one exchange is an independent draw in the next. Pure arithmetic: no
// seed from the process or the clock, so runs replay.
func memberKey(salt uint32, name uint64, inc uint32, suspect bool) uint64 {
	h := mix64(name ^ uint64(salt)*0x9e3779b97f4a7c15)
	v := uint64(inc) << 1
	if suspect {
		v |= 1
	}
	return mix64(h ^ v)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// digest builds into d the Bloom filter of every member but self, salted
// with salt (carried as d.Gen): the asker's half of anti-entropy sync.
func (ms *Membership) digest(d *core.StoreSummary, salt uint32) {
	n := len(ms.byName)
	if lookup(ms, ms.self) != nil {
		n--
	}
	d.Reset(salt, n)
	for _, st := range ms.byName {
		if st.host != ms.self {
			d.Add(memberKey(salt, st.hash, st.inc, st.suspected))
		}
	}
}

// missing returns, in name order, the members whose key under d's salt d
// does not claim — what the asker lacks or holds in another state — less
// self and the asker, whose own beacon headers speak for them. The slice
// is scratch, valid until the next call.
func (ms *Membership) missing(d *core.StoreSummary, asker string) []*memberState {
	out := ms.miss[:0]
	for _, st := range ms.byName {
		if st.host == ms.self || st.host == asker || d.MayContain(memberKey(d.Gen, st.hash, st.inc, st.suspected)) {
			continue
		}
		out = append(out, st)
	}
	ms.miss = out
	return out
}

// appendSummaryBlock encodes one summary per member of sts, in order, as a
// heartbeat summary block: the payload of a sync reply. No members write
// nothing, as AppendTo omits an empty block.
func (ms *Membership) appendSummaryBlock(b []byte, sts []*memberState, now sim.Time) []byte {
	if len(sts) == 0 {
		return b
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(sts)))
	for _, st := range sts {
		b = appendSummary(b, ms.summarize(st, now))
	}
	return b
}

// summaryBlockSize is the encoded size of appendSummaryBlock's output.
func summaryBlockSize(sts []*memberState) int {
	if len(sts) == 0 {
		return 0
	}
	size := 2
	for _, st := range sts {
		size += summaryWire + len(st.host)
	}
	return size
}

// sender resolves a beacon's sender name: the table's state and its copy
// of the name, so decoding a known host's name allocates nothing. An
// unknown name (or a nil table) is copied, with a nil state.
func (ms *Membership) sender(b []byte) (*memberState, string) {
	if ms != nil {
		if st := lookup(ms, b); st != nil {
			return st, st.host
		}
	}
	return nil, string(b)
}

// summarize builds the gossip entry for one member. For a live member the
// age dates its freshest sign of life; for a suspected one it dates the
// suspicion itself, so receivers can order it against their own evidence.
func (ms *Membership) summarize(st *memberState, now sim.Time) MemberSummary {
	since := st.lastHeard
	if st.suspected {
		since = st.suspectAt
	}
	age := sim.Duration(now - since)
	if age < 0 {
		age = 0
	}
	return MemberSummary{Host: st.host, Seq: st.seq, Inc: st.inc, Load: st.load, Age: age, Suspect: st.suspected}
}

// Alive reports whether the named member is up in this view: known and
// not suspected. Hosts never heard from are not alive. Nothing times out,
// so the answer does not depend on now.
func (ms *Membership) Alive(host string, now sim.Time) bool {
	st := lookup(ms, host)
	return st != nil && !st.suspected
}

// LastHeard returns when the named member last beaconed (0, false if
// never).
func (ms *Membership) LastHeard(host string) (sim.Time, bool) {
	st := lookup(ms, host)
	if st == nil {
		return 0, false
	}
	return st.lastHeard, true
}

// Get returns the named member's row.
func (ms *Membership) Get(host string, now sim.Time) (Member, bool) {
	st := lookup(ms, host)
	if st == nil {
		return Member{}, false
	}
	return st.row(), true
}

// ViewInto snapshots the table into dst[:0], sorted by host name, and
// returns the rows. The snapshot is stable across parks (beacons arriving
// later mutate the table, not dst); passing the previous result back in
// makes the call allocation-free at steady state.
func (ms *Membership) ViewInto(dst []Member) []Member {
	out := dst[:0]
	for _, st := range ms.byName {
		out = append(out, st.row())
	}
	return out
}

// row is the member's view row.
func (st *memberState) row() Member {
	return Member{
		Host: st.host, Seq: st.seq, Inc: st.inc, Load: st.load,
		LastHeard: st.lastHeard,
		Alive:     !st.suspected,
		Suspected: st.suspected,
	}
}
