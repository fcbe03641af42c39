package ha_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"procmig/internal/aout"
	"procmig/internal/cluster"
	"procmig/internal/core"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// pageRec encodes a stream record carrying one page (RecPage or, with an
// LZ frame, RecPageLZ).
func pageRec(typ byte, pg uint32, body []byte) []byte {
	b := binary.BigEndian.AppendUint32([]byte{typ}, pg)
	b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...)
}

// TestGuardTornDeltaRecoversCommitted: a delta checkpoint tears on the
// buddy — a page lands over the hog's tick counter, then an LZ frame fails
// its checksum, then the stream aborts — and the source crashes right
// after. The buddy's committed image must be untouched by the torn delta,
// and the copy it recovers must resume from checkpoint k's memory.
func TestGuardTornDeltaRecoversCommitted(t *testing.T) {
	c := bootHA(t, ha.Config{Interval: sim.Second, CkptInterval: 2 * sim.Second},
		"alpha", "beta", "gamma")
	var seq int
	var recs []ha.Recovery
	var committed, after []byte
	var ticksAtK, ticksRecovered uint32
	var recovered bool
	c.Eng.Go("driver", func(tk *sim.Task) {
		defer killAll(c)
		hog, err := c.Spawn("alpha", nil, cluster.DefaultUser, "/bin/hog")
		if err != nil {
			t.Error(err)
			return
		}
		buddy := c.HA("beta").Guard
		c.HA("alpha").Guard.Protect(hog.PID, "beta")
		// Land just after a commit, so the next real checkpoint is a full
		// interval away.
		seq = awaitSeq(tk, buddy, "alpha", hog.PID, 2, sim.Time(30*sim.Second))
		seq = awaitSeq(tk, buddy, "alpha", hog.PID, seq+1, tk.Now()+sim.Time(10*sim.Second))
		img, gen := buddy.NewestCheckpoint("alpha", hog.PID)
		if img == nil {
			t.Error("no checkpoint committed")
			return
		}
		committed, _, _ = img.Spool()
		exe, err := aout.Decode(committed)
		if err != nil {
			t.Error(err)
			return
		}
		ticksAtK = binary.BigEndian.Uint32(exe.Data)

		// The torn delta, on the live generation's stream port.
		dataBase := vm.DataBase(len(exe.Text))
		hello := ha.EncodeGuardHello(gen, (&core.StreamHello{
			PID: uint32(hog.PID), ISA: exe.ISA, Entry: exe.Entry,
			TextLen: uint32(len(exe.Text)), DataLen: uint32(len(exe.Data)), Source: "alpha",
		}).Encode())
		src, _ := c.Net.Host("alpha")
		st, err := src.OpenStream(tk, "beta", ha.GuardSpoolPort, hello)
		if err != nil {
			t.Error(err)
			return
		}
		frame := core.AppendLZ(nil, bytes.Repeat([]byte{0x5a}, vm.PageSize))
		frame[5] ^= 0xff // checksum
		for _, rec := range [][]byte{
			pageRec(core.RecPage, dataBase>>vm.PageShift, bytes.Repeat([]byte{0xa5}, vm.PageSize)),
			pageRec(core.RecPageLZ, (vm.StackTop-1)>>vm.PageShift, frame),
		} {
			if err := st.Send(tk, rec); err != nil {
				t.Error(err)
				return
			}
		}
		st.Abort(tk)
		c.Crash("alpha")

		if now, _ := buddy.NewestCheckpoint("alpha", hog.PID); now != img {
			t.Error("the torn delta replaced the committed checkpoint")
		}
		after, _, _ = img.Spool()
		deadline := tk.Now() + sim.Time(30*sim.Second)
		for len(buddy.Recoveries) == 0 && tk.Now() < deadline {
			tk.Sleep(50 * sim.Millisecond)
		}
		recs = append([]ha.Recovery(nil), buddy.Recoveries...)
		if len(recs) == 0 {
			return
		}
		if p, ok := c.Machine("beta").FindProc(recs[0].NewPID); ok && p.State == kernel.ProcRunning && p.VM != nil {
			recovered = true
			ticksRecovered, _ = p.VM.ReadU32(vm.DataBase(len(p.VM.Text)))
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, committed) {
		t.Fatal("the torn delta changed the committed image")
	}
	if len(recs) != 1 || recs[0].Status != 0 || recs[0].Seq != seq {
		t.Fatalf("recovery records = %+v, want one successful restart of checkpoint %d", recs, seq)
	}
	if !recovered {
		t.Fatal("recovered copy not running on the buddy")
	}
	// The copy has run briefly since its restart; it must have started
	// from checkpoint k's counter, not the torn page's 0xa5a5a5a5.
	if ticksRecovered < ticksAtK || ticksRecovered-ticksAtK > 1000 {
		t.Fatalf("recovered tick counter %#x, checkpoint %d held %#x", ticksRecovered, seq, ticksAtK)
	}
}
