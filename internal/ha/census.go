package ha

import (
	"encoding/binary"
	"errors"
	"slices"

	"procmig/internal/sim"
)

// ProcStat is one run-queue entry in a host's census: a VM (migratable)
// process with enough accounting for a remote balancer to pick candidates
// without inspecting the peer's process table.
type ProcStat struct {
	PID    int
	OldPID int          // pre-migration pid (0 if never migrated)
	Age    sim.Duration // virtual time since the process started
	CPU    sim.Duration // user CPU consumed
}

// procStatWire is the encoded size of one ProcStat.
const procStatWire = 4 + 4 + 8 + 8

var errBadCensus = errors.New("ha: bad census")

// appendCensus encodes a census answer onto b: a 16-bit count, then each
// entry's pid, old pid, age and CPU.
func appendCensus(b []byte, procs []ProcStat) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(procs)))
	for _, ps := range procs {
		b = binary.BigEndian.AppendUint32(b, uint32(ps.PID))
		b = binary.BigEndian.AppendUint32(b, uint32(ps.OldPID))
		b = binary.BigEndian.AppendUint64(b, uint64(ps.Age))
		b = binary.BigEndian.AppendUint64(b, uint64(ps.CPU))
	}
	return b
}

// decodeCensus parses a census answer onto dst[:0]. The count must match
// the remaining bytes exactly, checked before dst grows, so hostile input
// cannot demand memory.
func decodeCensus(raw []byte, dst []ProcStat) ([]ProcStat, error) {
	if len(raw) < 2 || len(raw)-2 != int(binary.BigEndian.Uint16(raw))*procStatWire {
		return dst[:0], errBadCensus
	}
	dst = slices.Grow(dst[:0], (len(raw)-2)/procStatWire)
	for p := 2; p < len(raw); p += procStatWire {
		dst = append(dst, ProcStat{
			PID:    int(int32(binary.BigEndian.Uint32(raw[p:]))),
			OldPID: int(int32(binary.BigEndian.Uint32(raw[p+4:]))),
			Age:    sim.Duration(binary.BigEndian.Uint64(raw[p+8:])),
			CPU:    sim.Duration(binary.BigEndian.Uint64(raw[p+16:])),
		})
	}
	return dst, nil
}

// handleCensus is the CensusPort listener. The answer is allocated at its
// exact size, because the asker reads it after the handler returns.
func (n *Node) handleCensus(t *sim.Task, _ []byte) []byte {
	n.procs = n.src.AppendProcStats(n.now(t), n.procs[:0])
	return appendCensus(make([]byte, 0, 2+len(n.procs)*procStatWire), n.procs)
}

// Census asks peer over the network which processes run there, decoding
// the answer onto dst[:0]. A failed query is not a failed probe: it
// suspects nobody.
func (n *Node) Census(t *sim.Task, peer string, dst []ProcStat) ([]ProcStat, error) {
	resp, err := n.host.Call(t, peer, CensusPort, nil)
	if err != nil {
		return dst[:0], err
	}
	return decodeCensus(resp, dst)
}

// ViewInto snapshots the node's membership view into dst (see
// Membership.ViewInto).
func (n *Node) ViewInto(dst []Member) []Member { return n.members.ViewInto(dst) }
