package ha_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"procmig/internal/ha"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// loneNode starts hbd alone on host "self" (load 4) of a fresh network,
// stops it before its first beacon, and leaves the clock at 2 s.
func loneNode(t *testing.T, inc uint32) (*ha.Node, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.New(eng, 100*sim.Microsecond, 0)
	node, err := ha.StartSource(eng, net.AddHost("self"), &gossipSource{name: "self", load: 4}, nil, ha.Config{Incarnation: inc})
	if err != nil {
		t.Fatal(err)
	}
	node.Stop()
	eng.Go("clock", func(tk *sim.Task) { tk.Sleep(2 * sim.Second) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return node, eng
}

// TestBeaconFromKnownSenderAllocatesNothing pins hbd's receive path: once
// the table knows a sender and every host it summarizes, decoding the
// beacon, streaming its summaries into the table and folding in its new
// proc census allocate nothing.
func TestBeaconFromKnownSenderAllocatesNothing(t *testing.T) {
	node, eng := loneNode(t, 0)
	hb := &ha.Heartbeat{Host: "peer", Seq: 1, Load: 2,
		Procs: []ha.ProcStat{{PID: 1042, Age: sim.Second, CPU: sim.Millisecond}, {PID: 2042, OldPID: 7}},
		Summaries: []ha.MemberSummary{
			{Host: "alpha", Seq: 4},
			{Host: "bravo", Seq: 2, Suspect: true},
			{Host: "self", Seq: 9},
		},
	}
	raw := hb.Encode()
	node.HandleBeacon(raw) // first sight: the table learns every name
	seqAt := 4 + len(hb.Host)
	seq := hb.Seq
	allocs := testing.AllocsPerRun(100, func() {
		seq++
		binary.BigEndian.PutUint32(raw[seqAt:], seq)
		if node.HandleBeacon(raw) == nil {
			t.Fatal("beacon rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("beacon from a known sender: %v allocs, want 0", allocs)
	}
	m, ok := node.Members().Get("peer", eng.Now())
	if !ok || m.Seq != seq || len(m.Procs) != 2 {
		t.Fatalf("peer row %+v (known %v), want seq %d with 2 procs", m, ok, seq)
	}
}

// TestHandleSyncAllocatesOnlyItsReply: answering a sync push from known
// hosts allocates the reply and nothing else, at its exact final size.
func TestHandleSyncAllocatesOnlyItsReply(t *testing.T) {
	node, eng := loneNode(t, 0)
	push := (&ha.Heartbeat{Host: "peer", Seq: 1, Summaries: []ha.MemberSummary{
		{Host: "alpha", Seq: 3}, {Host: "peer", Seq: 1}, {Host: "self"}, {Host: "a-much-longer-host-name", Seq: 8},
	}}).Encode()
	node.HandleSync(push)
	var reply []byte
	allocs := testing.AllocsPerRun(50, func() { reply = node.HandleSync(push) })
	if allocs != 1 {
		t.Fatalf("handleSync: %v allocs, want exactly 1 (the reply)", allocs)
	}
	if cap(reply) != len(reply) {
		t.Fatalf("reply len %d cap %d, want an exactly sized buffer", len(reply), cap(reply))
	}
	if want := node.AppendSync(nil, eng.Now()); !bytes.Equal(reply, want) {
		t.Fatalf("reply %x, want the sync payload %x", reply, want)
	}
	hb, err := ha.DecodeHeartbeat(reply)
	if err != nil || len(hb.Summaries) != node.Members().Len() {
		t.Fatalf("reply decodes to %+v, %v; want one summary per member (%d)", hb, err, node.Members().Len())
	}
}

// TestSyncPayloadGolden: the anti-entropy payload written straight from
// the member table is byte for byte the beacon encoding of the node's
// header plus one summary per member in name order — a suspected member
// dated by its suspicion, a reborn one at its new incarnation, self
// included.
func TestSyncPayloadGolden(t *testing.T) {
	node, _ := loneNode(t, 2)
	ms := node.Members()
	at := func(s int) sim.Time { return sim.Time(sim.Duration(s) * sim.Second) }
	ms.Observe(&ha.Heartbeat{Host: "self", Seq: 3, Inc: 2, Load: 4}, at(9))
	ms.Observe(&ha.Heartbeat{Host: "bravo", Seq: 7, Load: 3}, at(4))
	ms.Suspect("charlie", at(8)) // never heard from
	ms.Observe(&ha.Heartbeat{Host: "delta", Seq: 5, Load: 1}, at(2))
	ms.Observe(&ha.Heartbeat{Host: "delta", Seq: 1, Inc: 1, Load: 6}, at(5)) // reborn
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 9, Load: 2}, at(6))
	ms.Suspect("alpha", at(7)) // heard from, then suspected

	got := node.AppendSync(nil, at(10))
	want := &ha.Heartbeat{Host: "self", Seq: 0, Inc: 2, Load: 4, Summaries: []ha.MemberSummary{
		{Host: "alpha", Seq: 9, Load: 2, Age: 3 * sim.Second, Suspect: true},
		{Host: "bravo", Seq: 7, Load: 3, Age: 6 * sim.Second},
		{Host: "charlie", Age: 2 * sim.Second, Suspect: true},
		{Host: "delta", Seq: 1, Inc: 1, Load: 6, Age: 5 * sim.Second},
		{Host: "self", Seq: 3, Inc: 2, Load: 4, Age: sim.Second},
	}}
	if !bytes.Equal(got, want.Encode()) {
		t.Fatalf("sync payload\n %x\nwant\n %x", got, want.Encode())
	}
	dec, err := ha.DecodeHeartbeat(got)
	if err != nil {
		t.Fatalf("DecodeHeartbeat rejects the sync payload: %v", err)
	}
	if !reflect.DeepEqual(dec, want) {
		t.Fatalf("sync payload decodes to %+v, want %+v", dec, want)
	}
}
