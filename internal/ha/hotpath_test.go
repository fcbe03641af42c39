package ha_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"procmig/internal/core"
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
// beacon, streaming its summaries into the table and folding in the
// sender's new state allocate nothing.
func TestBeaconFromKnownSenderAllocatesNothing(t *testing.T) {
	node, eng := loneNode(t, 0)
	hb := &ha.Heartbeat{Host: "peer", Seq: 1, Load: 2,
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
	if !ok || m.Seq != seq || m.Load != 2 {
		t.Fatalf("peer row %+v (known %v), want seq %d with load 2", m, ok, seq)
	}
}

// TestHandleSyncAllocatesOnlyItsReply: answering a sync request from a
// known host allocates the reply and nothing else, at its exact final
// size, and the reply carries exactly the members the request's digest
// does not claim — less the responder and the asker, whose beacon headers
// speak for them.
func TestHandleSyncAllocatesOnlyItsReply(t *testing.T) {
	node, _ := loneNode(t, 0)
	ms := node.Members()
	for _, h := range []string{"alpha", "bravo", "peer", "a-much-longer-host-name"} {
		ms.Observe(&ha.Heartbeat{Host: h, Seq: 3}, sim.Time(sim.Second))
	}
	asker := ha.NewMembership("peer")
	asker.Observe(&ha.Heartbeat{Host: "alpha", Seq: 3}, sim.Time(sim.Second))
	req := ha.SyncRequest(&ha.Heartbeat{Host: "peer", Seq: 3}, asker)
	node.HandleSync(req)
	var reply []byte
	allocs := testing.AllocsPerRun(50, func() { reply = node.HandleSync(req) })
	if allocs != 1 {
		t.Fatalf("handleSync: %v allocs, want exactly 1 (the reply)", allocs)
	}
	if cap(reply) != len(reply) {
		t.Fatalf("reply len %d cap %d, want an exactly sized buffer", len(reply), cap(reply))
	}
	hb, err := ha.DecodeHeartbeat(reply)
	if err != nil {
		t.Fatalf("reply does not decode: %v", err)
	}
	var got []string
	for _, s := range hb.Summaries {
		got = append(got, s.Host)
	}
	if want := []string{"a-much-longer-host-name", "bravo"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reply summarizes %q, want %q", got, want)
	}
}

// TestSyncPayloadGolden pins both halves of anti-entropy sync byte for
// byte against hand-built payloads. The request is the node's beacon
// header (no procs, no news) followed by a page-store summary encoding
// whose Gen is the salt — the node's beacon sequence number — and whose
// filter holds the key of every member but self: a suspected member keyed
// as suspected, a reborn one at its new incarnation. The reply to a
// request is the header plus, in name order, a summary of every member
// the asker's digest does not claim: here one it lacks (charlie) and one
// it holds at an older incarnation (delta).
func TestSyncPayloadGolden(t *testing.T) {
	// The key hash is part of the wire format: pin one value.
	if got := ha.MemberKey(77, "alpha", 1, true); got != 0x72c1678223145690 {
		t.Fatalf("MemberKey(77, alpha, 1, true) = %#x, the digest key hash changed", got)
	}
	node, eng := loneNode(t, 2)
	ms := node.Members()
	at := func(ms int) sim.Time { return sim.Time(sim.Duration(ms) * sim.Millisecond) }
	ms.Observe(&ha.Heartbeat{Host: "self", Seq: 3, Inc: 2, Load: 4}, at(1900))
	ms.Observe(&ha.Heartbeat{Host: "bravo", Seq: 7, Load: 3}, at(800))
	ms.Suspect("charlie", at(1600)) // never heard from
	ms.Observe(&ha.Heartbeat{Host: "delta", Seq: 5, Load: 1}, at(400))
	ms.Observe(&ha.Heartbeat{Host: "delta", Seq: 1, Inc: 1, Load: 6}, at(1000)) // reborn
	ms.Observe(&ha.Heartbeat{Host: "alpha", Seq: 9, Load: 2}, at(1200))
	ms.Suspect("alpha", at(1400)) // heard from, then suspected
	if eng.Now() != at(2000) {
		t.Fatalf("clock at %v, the golden ages assume 2s", eng.Now())
	}

	var d core.StoreSummary
	d.Reset(0, 4)
	d.Add(ha.MemberKey(0, "alpha", 0, true))
	d.Add(ha.MemberKey(0, "bravo", 0, false))
	d.Add(ha.MemberKey(0, "charlie", 0, true))
	d.Add(ha.MemberKey(0, "delta", 1, false))
	want := append((&ha.Heartbeat{Host: "self", Inc: 2, Load: 4}).Encode(), d.Encode()...)
	if got := node.AppendSyncRequest(nil); !bytes.Equal(got, want) {
		t.Fatalf("sync request\n %x\nwant\n %x", got, want)
	}

	var ask core.StoreSummary
	ask.Reset(77, 3)
	ask.Add(ha.MemberKey(77, "alpha", 0, true))
	ask.Add(ha.MemberKey(77, "bravo", 0, false))
	ask.Add(ha.MemberKey(77, "delta", 0, false)) // the old life
	req := append((&ha.Heartbeat{Host: "peer", Seq: 77}).Encode(), ask.Encode()...)
	wantReply := &ha.Heartbeat{Host: "self", Inc: 2, Load: 4, Summaries: []ha.MemberSummary{
		{Host: "charlie", Age: 400 * sim.Millisecond, Suspect: true},
		{Host: "delta", Seq: 1, Inc: 1, Load: 6, Age: sim.Second},
	}}
	reply := node.HandleSync(req)
	if !bytes.Equal(reply, wantReply.Encode()) {
		t.Fatalf("sync reply\n %x\nwant\n %x", reply, wantReply.Encode())
	}
	dec, err := ha.DecodeHeartbeat(reply)
	if err != nil {
		t.Fatalf("DecodeHeartbeat rejects the sync reply: %v", err)
	}
	if !reflect.DeepEqual(dec, wantReply) {
		t.Fatalf("sync reply decodes to %+v, want %+v", dec, wantReply)
	}
}

// TestSyncRequestRefusesOversizedDigest: a digest longer than
// core.StoreSummaryMaxBytes is refused, whether its bytes follow or the
// length field merely claims them.
func TestSyncRequestRefusesOversizedDigest(t *testing.T) {
	node, _ := loneNode(t, 0)
	hdr := (&ha.Heartbeat{Host: "peer", Seq: 1}).Encode()
	big := core.StoreSummary{Entries: 1, K: 7, Bits: make([]byte, core.StoreSummaryMaxBytes+1)}
	full := append(append([]byte(nil), hdr...), big.Encode()...)
	claim := full[:len(hdr)+15]
	atCap := core.StoreSummary{Entries: 1, K: 7, Bits: make([]byte, core.StoreSummaryMaxBytes)}
	for name, raw := range map[string][]byte{"oversized": full, "claimed": claim} {
		if _, _, err := ha.DecodeSyncRequest(raw); err == nil {
			t.Errorf("%s request accepted", name)
		}
		if node.HandleSync(raw) != nil {
			t.Errorf("%s request answered", name)
		}
	}
	if _, _, err := ha.DecodeSyncRequest(append(hdr, atCap.Encode()...)); err != nil {
		t.Fatalf("a digest at the cap refused: %v", err)
	}
}

// TestSyncSaltingCompletesRoster: a node missing exactly one member of a
// 60-host cluster completes its roster within 3 syncs from every one of
// 1,200 starting salts (the asker's sequence number advances by one per
// sync). Among them are salts under which the missing member is a Bloom
// false positive of the asker's digest: that sync returns nothing, and
// the next, differently salted one delivers it.
func TestSyncSaltingCompletesRoster(t *testing.T) {
	node, eng := loneNode(t, 0)
	var hosts []string
	for i := 1; i < 60; i++ {
		hosts = append(hosts, fmt.Sprintf("h%03d", i))
	}
	for _, h := range hosts {
		node.Members().Observe(&ha.Heartbeat{Host: h, Seq: 1}, eng.Now())
	}
	const asker, lost = "h001", "h030"
	fps := 0
	for salt := uint32(0); salt < 1200; salt++ {
		ms := ha.NewMembership(asker)
		ms.Observe(&ha.Heartbeat{Host: "self", Seq: 1, Load: 4}, eng.Now())
		for _, h := range hosts {
			if h != lost {
				ms.Observe(&ha.Heartbeat{Host: h, Seq: 1}, eng.Now())
			}
		}
		syncs := 0
		for ms.Len() < 60 && syncs < 3 {
			req := ha.SyncRequest(&ha.Heartbeat{Host: asker, Seq: salt + uint32(syncs)}, ms)
			if syncs == 0 {
				_, d, err := ha.DecodeSyncRequest(req)
				if err != nil {
					t.Fatal(err)
				}
				if d.MayContain(ha.MemberKey(salt, lost, 0, false)) {
					fps++
				}
			}
			if _, _, err := ha.ObserveHeartbeat(ms, node.HandleSync(req), eng.Now()); err != nil {
				t.Fatalf("salt %d: reply rejected: %v", salt, err)
			}
			syncs++
		}
		if ms.Len() < 60 {
			t.Fatalf("salt %d: roster still incomplete (%d/60) after 3 syncs", salt, ms.Len())
		}
	}
	if fps == 0 {
		t.Fatal("no salt made the missing member a false positive: the test never exercised salting")
	}
	t.Logf("%d of 1200 salts hid the missing member on the first sync", fps)
}
