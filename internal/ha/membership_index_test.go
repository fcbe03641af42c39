package ha_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"procmig/internal/core"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// refMember is one row of refTable.
type refMember struct {
	seq, inc  uint32
	load      int
	lastHeard sim.Time
	suspected bool
	suspectAt sim.Time
}

// refTable is the membership rules over a Go map: the model the indexed
// table is checked against.
type refTable struct {
	self string
	m    map[string]*refMember
}

func (r *refTable) state(host string) (*refMember, bool) {
	st, ok := r.m[host]
	if !ok {
		st = &refMember{}
		r.m[host] = st
	}
	return st, ok
}

func (r *refTable) observe(hb *ha.Heartbeat, now sim.Time) {
	st, known := r.state(hb.Host)
	if known && hb.Inc < st.inc {
		return
	}
	if hb.Inc > st.inc {
		st.inc, st.seq = hb.Inc, 0
	}
	st.suspected = false
	if now > st.lastHeard {
		st.lastHeard = now
	}
	if known && hb.Seq <= st.seq {
		return
	}
	st.seq, st.load = hb.Seq, hb.Load
}

func (r *refTable) suspect(host string, now sim.Time) {
	if host == r.self {
		return
	}
	if st, _ := r.state(host); !st.suspected {
		st.suspected, st.suspectAt = true, now
	}
}

func (r *refTable) observeSummary(host string, seq, inc uint32, load int, suspect bool, heard, now sim.Time) {
	if host == r.self {
		return
	}
	st, known := r.state(host)
	heard = min(heard, now)
	if known && inc < st.inc {
		return
	}
	if inc > st.inc {
		st.inc, st.seq = inc, 0
		if !suspect {
			st.suspected = false
		}
	}
	if suspect {
		if !st.suspected && heard > st.lastHeard {
			st.suspected, st.suspectAt = true, heard
		}
		return
	}
	if st.suspected && heard > st.suspectAt {
		st.suspected = false
	}
	st.lastHeard = max(st.lastHeard, heard)
	if !known || seq > st.seq {
		st.seq, st.load = seq, load
	}
}

func (r *refTable) row(host string) ha.Member {
	st := r.m[host]
	return ha.Member{Host: host, Seq: st.seq, Inc: st.inc, Load: st.load,
		LastHeard: st.lastHeard, Alive: !st.suspected, Suspected: st.suspected}
}

// TestMembershipIndexMatchesMapModel runs random sequences of Observe,
// ObserveSummaryBytes and Suspect against the indexed table and against
// a map-based model of the same rules, with roster hints of 0, 2 and 64
// and names drawn both from the hinted roster and from outside it, so the
// index is sized up front, grown by doubling and probed past collisions.
// Every few operations the two must agree on Len, Get, Alive, LastHeard,
// the ViewInto rows and their order, and the members a sync reply would
// carry for a random digest.
func TestMembershipIndexMatchesMapModel(t *testing.T) {
	const self = "h000"
	for _, hint := range []int{0, 2, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("hint%d/seed%d", hint, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var names []string
				for i := 0; i < max(hint, 8); i++ {
					names = append(names, fmt.Sprintf("h%03d", i)) // the roster
				}
				for i := 0; i < 40; i++ {
					names = append(names, fmt.Sprintf("stranger-%d", i*7919%1000)) // outside it
				}
				ms := ha.HintedMembership(self, hint)
				ref := &refTable{self: self, m: map[string]*refMember{}}
				var view []ha.Member
				now := sim.Time(0)
				for op := 0; op < 3000; op++ {
					now += sim.Time(rng.Intn(3)) * sim.Time(sim.Millisecond)
					host := names[rng.Intn(len(names))]
					seq, inc := uint32(rng.Intn(6)), uint32(rng.Intn(3))
					load := rng.Intn(5)
					switch rng.Intn(4) {
					case 0:
						hb := &ha.Heartbeat{Host: host, Seq: seq, Inc: inc, Load: load}
						ms.Observe(hb, now)
						ref.observe(hb, now)
					case 1:
						ms.Suspect(host, now)
						ref.suspect(host, now)
					default:
						suspect := rng.Intn(4) == 0
						heard := now - sim.Time(rng.Intn(20))*sim.Time(sim.Millisecond) + sim.Time(rng.Intn(2))
						ms.ObserveSummaryBytes([]byte(host), seq, inc, load, suspect, heard, now)
						ref.observeSummary(host, seq, inc, load, suspect, heard, now)
					}
					if op%50 != 49 {
						continue
					}
					if ms.Len() != len(ref.m) {
						t.Fatalf("op %d: Len %d, model %d", op, ms.Len(), len(ref.m))
					}
					var want []string
					for h := range ref.m {
						want = append(want, h)
					}
					sort.Strings(want)
					view = ms.ViewInto(view)
					for i, h := range want {
						if view[i].Host != h || !reflect.DeepEqual(view[i], ref.row(h)) {
							t.Fatalf("op %d: view row %d %+v, model %+v", op, i, view[i], ref.row(h))
						}
					}
					for _, h := range names {
						st, known := ref.m[h]
						got, ok := ms.Get(h, now)
						if ok != known || known && !reflect.DeepEqual(got, ref.row(h)) {
							t.Fatalf("op %d: Get(%s) = %+v %v, model %+v %v", op, h, got, ok, ref.row(h), known)
						}
						if alive := ms.Alive(h, now); alive != (known && !st.suspected) {
							t.Fatalf("op %d: Alive(%s) = %v", op, h, alive)
						}
						if at, ok := ms.LastHeard(h); ok != known || known && at != st.lastHeard {
							t.Fatalf("op %d: LastHeard(%s) = %v %v", op, h, at, ok)
						}
					}
					salt := rng.Uint32()
					var d core.StoreSummary
					d.Reset(salt, len(want))
					var missing []string
					asker := names[rng.Intn(len(names))]
					key := func(h string) uint64 {
						return ha.MemberKey(salt, h, ref.m[h].inc, ref.m[h].suspected)
					}
					for _, h := range want {
						if rng.Intn(2) == 0 {
							d.Add(key(h))
						}
					}
					for _, h := range want {
						if h != self && h != asker && !d.MayContain(key(h)) {
							missing = append(missing, h)
						}
					}
					if got := ha.Missing(ms, &d, asker); !reflect.DeepEqual(got, missing) {
						t.Fatalf("op %d: missing %q, model %q", op, got, missing)
					}
				}
			})
		}
	}
}

// TestMembershipHintedBootstrapAllocs pins the cost of learning a whole
// roster: a table told the cluster has 500 members allocates one state
// per member plus the index and the name order, each sized once.
func TestMembershipHintedBootstrapAllocs(t *testing.T) {
	const roster = 500
	names := make([]string, roster)
	for i := range names {
		names[i] = fmt.Sprintf("h%04d", i)
	}
	const runs = 5
	tables := make([]*ha.Membership, runs+1)
	for i := range tables {
		tables[i] = ha.HintedMembership(names[0], roster)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		ms := tables[next]
		next++
		ms.Observe(&ha.Heartbeat{Host: names[0], Seq: 1}, 0)
		for _, h := range names[1:] {
			ms.ObserveSummary(ha.MemberSummary{Host: h, Seq: 1}, 0, 0)
		}
		if ms.Len() != roster {
			t.Fatalf("table learned %d of %d members", ms.Len(), roster)
		}
	})
	if allocs > roster+2 {
		t.Fatalf("learning %d members: %v allocs, want at most %d", roster, allocs, roster+2)
	}
}

// BenchmarkMembershipBootstrap measures a node learning a 500-member
// roster from gossip: every summary names a host the table has not seen,
// keyed by its wire bytes as the receive path delivers it.
func BenchmarkMembershipBootstrap(b *testing.B) {
	const roster = 500
	names := make([][]byte, roster)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("h%04d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := ha.HintedMembership("h0000", roster)
		for _, h := range names {
			ms.ObserveSummaryBytes(h, 1, 0, 0, false, 0, 0)
		}
		if ms.Len() != roster-1 {
			b.Fatalf("table learned %d of %d members", ms.Len(), roster-1)
		}
	}
}
