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

// AppendSync encodes the node's anti-entropy payload as of now onto b.
func (n *Node) AppendSync(b []byte, now sim.Time) []byte { return n.appendSync(b, now) }

// ObserveHeartbeat runs hbd's receive path on raw against ms, as
// handleBeacon does: the summaries stream into the table, then the sender
// is folded in. It returns the decoded sender fields and how many
// summaries were observed.
func ObserveHeartbeat(ms *Membership, raw []byte, now sim.Time) (*Heartbeat, int, error) {
	hb := &Heartbeat{}
	ns, err := decodeHeartbeatObserve(raw, hb, ms, now)
	if err != nil {
		return nil, 0, err
	}
	ms.Observe(hb, now)
	return hb, ns, nil
}
