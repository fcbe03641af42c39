package ha_test

import (
	"bytes"
	"reflect"
	"testing"

	"procmig/internal/core"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// FuzzDecodeHeartbeat throws arbitrary bytes at the beacon decoder.
// Beacons arrive over the (fault-injected) network, so the decoder must
// reject anything malformed without panicking or allocating on behalf of
// a hostile length field, and every beacon it does accept must re-encode
// to exactly the bytes it was decoded from.
func FuzzDecodeHeartbeat(f *testing.F) {
	good := &ha.Heartbeat{Host: "alpha", Seq: 42, Inc: 1, Load: 3, Summaries: []ha.MemberSummary{
		{Host: "bravo", Seq: 7, Age: sim.Second},
		{Host: "charlie", Seq: 3, Inc: 2, Load: 1, Age: 2 * sim.Second, Suspect: true},
	}}
	raw := good.Encode()
	f.Add(raw)
	f.Add(raw[:len(raw)-1])
	f.Add(raw[:3])
	f.Add([]byte{})
	f.Add(append(append([]byte{}, raw...), 0)) // trailing garbage
	f.Add((&ha.Heartbeat{Host: "x"}).Encode())
	f.Add(append((&ha.Heartbeat{Host: "x"}).Encode(), 0, 0)) // empty summary block
	f.Fuzz(func(t *testing.T, data []byte) {
		hb, err := ha.DecodeHeartbeat(data)
		if err != nil {
			return
		}
		if !bytes.Equal(hb.Encode(), data) {
			t.Fatalf("accepted beacon does not round-trip: %x", data)
		}
	})
}

// FuzzObserveHeartbeat holds hbd's receive path to the reference decoder.
// decodeHeartbeatObserve streams summaries into the member table instead
// of materializing them, so it must accept exactly what DecodeHeartbeat
// accepts, report the same sender fields, and leave the sender and every
// summarized host in the table (the table's own host excepted: hearsay
// never vouches for self). Each input also runs against a table hinted to
// a 2-member roster, which any input naming more hosts pushes through
// index growth and probe collisions; both tables must end up holding the
// same rows.
func FuzzObserveHeartbeat(f *testing.F) {
	const self = "alpha"
	good := &ha.Heartbeat{Host: "bravo", Seq: 42, Inc: 1, Load: 3,
		Summaries: []ha.MemberSummary{
			{Host: self, Seq: 7, Age: sim.Second},
			{Host: "bravo", Seq: 41},
			{Host: "charlie", Seq: 3, Inc: 2, Load: 1, Age: 2 * sim.Second, Suspect: true},
		},
	}
	raw := good.Encode()
	f.Add(raw)
	f.Add(raw[:len(raw)-1])
	f.Add(append(append([]byte{}, raw...), 0))
	f.Add((&ha.Heartbeat{Host: self}).Encode())
	f.Add(append((&ha.Heartbeat{Host: "x"}).Encode(), 0, 0)) // empty summary block
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := ha.DecodeHeartbeat(data)
		ms := ha.NewMembership(self)
		hb, ns, err := ha.ObserveHeartbeat(ms, data, sim.Time(10*sim.Second))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("hot path err %v, reference err %v on %x", err, refErr, data)
		}
		if err != nil {
			return
		}
		if ns != len(ref.Summaries) {
			t.Fatalf("hot path observed %d summaries, reference decoded %d", ns, len(ref.Summaries))
		}
		summaries := ref.Summaries
		ref.Summaries = nil
		if !reflect.DeepEqual(hb, ref) {
			t.Fatalf("hot path decoded %+v, reference %+v", hb, ref)
		}
		if _, ok := ms.LastHeard(ref.Host); !ok {
			t.Fatalf("sender %q not in the table", ref.Host)
		}
		for _, s := range summaries {
			if _, ok := ms.LastHeard(s.Host); !ok && s.Host != self {
				t.Fatalf("summarized host %q not in the table", s.Host)
			}
		}
		small := ha.HintedMembership(self, 2)
		if _, _, err := ha.ObserveHeartbeat(small, data, sim.Time(10*sim.Second)); err != nil {
			t.Fatalf("hinted table rejects what the plain one accepted: %v", err)
		}
		view := ms.ViewInto(nil)
		if got := small.ViewInto(nil); !reflect.DeepEqual(got, view) {
			t.Fatalf("hinted table holds %+v, plain one %+v", got, view)
		}
		for _, m := range view {
			want, _ := ms.Get(m.Host, 0)
			if got, ok := small.Get(m.Host, 0); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("hinted table's %q is %+v (known %v), want %+v", m.Host, got, ok, want)
			}
		}
	})
}

// FuzzDecodeSyncRequest throws arbitrary bytes at the anti-entropy sync
// request decoder. Requests arrive over the (fault-injected) network, so
// the decoder must never panic, must refuse a digest longer than
// core.StoreSummaryMaxBytes before reading it, and must accept only
// canonical input: every request it accepts re-encodes to exactly the
// bytes it was decoded from.
func FuzzDecodeSyncRequest(f *testing.F) {
	ms := ha.NewMembership("alpha")
	ms.Observe(&ha.Heartbeat{Host: "bravo", Seq: 3, Inc: 1}, sim.Time(sim.Second))
	ms.Suspect("charlie", sim.Time(2*sim.Second))
	raw := ha.SyncRequest(&ha.Heartbeat{Host: "alpha", Seq: 42, Inc: 2, Load: 3}, ms)
	f.Add(raw)
	f.Add(raw[:len(raw)-1])
	f.Add(raw[:3])
	f.Add([]byte{})
	f.Add(append(append([]byte{}, raw...), 0)) // trailing garbage
	f.Add(ha.SyncRequest(&ha.Heartbeat{Host: "x"}, ha.NewMembership("x")))
	hdr := (&ha.Heartbeat{Host: "alpha", Seq: 42}).Encode()
	f.Add(append(append([]byte{}, hdr...), 0o451>>8, 0o451&0xff, 0, 0, 0, 0, 0, 0, 0, 1, 7, 0xff, 0xff, 0xff, 0xff)) // digest length lies upward
	withNews := (&ha.Heartbeat{Host: "alpha", Summaries: []ha.MemberSummary{{Host: "b"}}}).Encode()
	f.Add(append(withNews, raw[len(hdr):]...)) // news where the digest belongs
	f.Fuzz(func(t *testing.T, data []byte) {
		hb, d, err := ha.DecodeSyncRequest(data)
		if err != nil {
			return
		}
		if len(d.Bits) > core.StoreSummaryMaxBytes {
			t.Fatalf("accepted a %d-byte digest, cap %d", len(d.Bits), core.StoreSummaryMaxBytes)
		}
		// Probing an accepted digest must be total.
		for i := uint64(0); i < 16; i++ {
			d.MayContain(i * 2654435761)
		}
		if again := ha.EncodeSyncRequest(hb, &d); !bytes.Equal(again, data) {
			t.Fatalf("accepted sync request does not round-trip:\n %x\nre-encoded\n %x", data, again)
		}
	})
}

// FuzzDecodeCensus throws arbitrary bytes at the census answer decoder.
// Answers arrive over the (fault-injected) network, so the decoder must
// never panic, must check the count against the remaining bytes before it
// grows the destination — a refused answer allocates nothing — and every
// answer it accepts must re-encode to exactly the bytes it was decoded
// from.
func FuzzDecodeCensus(f *testing.F) {
	raw := ha.AppendCensus(nil, []ha.ProcStat{
		{PID: 1042, OldPID: 17, Age: 9 * sim.Second, CPU: 4 * sim.Second},
		{PID: 2042, Age: sim.Second, CPU: 500 * sim.Millisecond},
	})
	f.Add(raw)
	f.Add(raw[:len(raw)-1])
	f.Add(raw[:1])
	f.Add([]byte{})
	f.Add(append(append([]byte{}, raw...), 0)) // trailing garbage
	f.Add(ha.AppendCensus(nil, nil))
	f.Add([]byte{0xff, 0xff}) // count lies upward
	f.Fuzz(func(t *testing.T, data []byte) {
		procs, err := ha.DecodeCensus(data, nil)
		if err != nil {
			if len(procs) != 0 {
				t.Fatalf("refused answer decoded to %+v", procs)
			}
			if allocs := testing.AllocsPerRun(1, func() { ha.DecodeCensus(data, nil) }); allocs != 0 {
				t.Fatalf("refused answer allocated %v times", allocs)
			}
			return
		}
		if again := ha.AppendCensus(nil, procs); !bytes.Equal(again, data) {
			t.Fatalf("accepted census does not round-trip:\n %x\nre-encoded\n %x", data, again)
		}
	})
}
