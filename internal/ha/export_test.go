package ha

import (
	"procmig/internal/core"
	"procmig/internal/sim"
)

// NewestCheckpoint returns the buddy's newest committed image of
// source/pid and the protection generation its assembler belongs to (nil
// and 0 if it holds none).
func (g *Guard) NewestCheckpoint(source string, pid int) (*core.CommittedImage, uint32) {
	if st, ok := g.ckpts[ckptKey{source, pid}]; ok {
		return st.img, st.gen
	}
	return nil, 0
}

// HandleBeacon and HandleSync run hbd's two listeners outside any task,
// at the engine's current time.
func (n *Node) HandleBeacon(raw []byte) []byte { return n.handleBeacon(nil, raw) }
func (n *Node) HandleSync(raw []byte) []byte   { return n.handleSync(nil, raw) }

// AppendSyncRequest encodes the node's sync request onto b.
func (n *Node) AppendSyncRequest(b []byte) []byte { return n.appendSyncRequest(b) }

// SyncRequest encodes the sync request a node with beacon header hb and
// table ms sends: a digest of ms salted with hb.Seq.
func SyncRequest(hb *Heartbeat, ms *Membership) []byte {
	var d core.StoreSummary
	ms.digest(&d, hb.Seq)
	return encodeSyncRequest(nil, hb, &d)
}

// EncodeSyncRequest and DecodeSyncRequest are the sync request codec; the
// decoder runs as handleSync does, less a table to name the sender from.
func EncodeSyncRequest(hb *Heartbeat, d *core.StoreSummary) []byte {
	return encodeSyncRequest(nil, hb, d)
}

func DecodeSyncRequest(raw []byte) (*Heartbeat, core.StoreSummary, error) {
	hb := &Heartbeat{}
	_, d, err := decodeSyncRequest(raw, hb, nil)
	if err != nil {
		return nil, core.StoreSummary{}, err
	}
	return hb, d, nil
}

// AppendCensus and DecodeCensus are the census answer codec.
func AppendCensus(b []byte, procs []ProcStat) []byte { return appendCensus(b, procs) }
func DecodeCensus(raw []byte, dst []ProcStat) ([]ProcStat, error) {
	return decodeCensus(raw, dst)
}

// MemberKey is a member's sync digest key under salt.
func MemberKey(salt uint32, host string, inc uint32, suspect bool) uint64 {
	return memberKey(salt, hashName(host), inc, suspect)
}

// ObserveHeartbeat runs hbd's receive path on raw against ms, as
// handleBeacon does: the summaries stream into the table, then the sender
// is folded in. It returns the decoded sender fields and how many
// summaries were observed.
func ObserveHeartbeat(ms *Membership, raw []byte, now sim.Time) (*Heartbeat, int, error) {
	hb := &Heartbeat{}
	ns, st, err := decodeHeartbeatObserve(raw, hb, ms, now)
	if err != nil {
		return nil, 0, err
	}
	ms.observe(st, hb, now)
	return hb, ns, nil
}

// HintedMembership is a table for self told, as SetPeers tells it, that
// the cluster has roster members, self included.
func HintedMembership(self string, roster int) *Membership {
	ms := NewMembership(self)
	ms.setGossipParams(1, roster)
	return ms
}

// Missing names, in order, the members a sync reply from ms to asker
// carries for digest d.
func Missing(ms *Membership, d *core.StoreSummary, asker string) []string {
	var out []string
	for _, st := range ms.missing(d, asker) {
		out = append(out, st.host)
	}
	return out
}
