package netsim

import (
	"reflect"
	"strings"
	"testing"

	"procmig/internal/obs"
	"procmig/internal/sim"
)

// linkRows returns every per-link row in reg as "host/name" -> value.
func linkRows(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, r := range reg.Snapshot() {
		if strings.HasPrefix(r.Name, "link.") {
			out[r.Host+"/"+r.Name] = r.Value
		}
	}
	return out
}

// calls makes n echo calls from -> to on port 7 inside one task.
func calls(t *testing.T, eng *sim.Engine, from *Host, to string, n int) {
	t.Helper()
	eng.Go("caller", func(tk *sim.Task) {
		for i := 0; i < n; i++ {
			from.Call(tk, to, 7, []byte("x"))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func wantRows(t *testing.T, step string, reg *obs.Registry, want map[string]int64) {
	t.Helper()
	if got := linkRows(reg); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: link rows %v, want %v", step, got, want)
	}
}

// TestLinkRowsCountOnlyFaults: a clean link has no registry rows at all;
// each way a message can be lost (a drop fault, a down receiver, a
// partition, a scripted crash) lands in the sender's link.<to>.dropped, one
// per lost message, and a duplicate in link.<to>.duplicated.
func TestLinkRowsCountOnlyFaults(t *testing.T) {
	eng, net, a, b, c := threeHosts(t, 1)
	reg := obs.NewRegistry()
	net.SetObs(reg)

	calls(t, eng, a, "b", 3)
	calls(t, eng, b, "c", 2)
	calls(t, eng, c, "a", 1)
	wantRows(t, "fault-free", reg, map[string]int64{})

	net.FaultLink("a", "b", FaultSpec{Drop: 1})
	calls(t, eng, a, "b", 3)
	net.ClearFaults()
	wantRows(t, "drop fault", reg, map[string]int64{"a/link.b.dropped": 3})

	c.SetDown(true)
	calls(t, eng, a, "c", 2)
	c.SetDown(false)
	wantRows(t, "down host", reg, map[string]int64{"a/link.b.dropped": 3, "a/link.c.dropped": 2})

	net.Partition([]string{"b"}, []string{"c"})
	calls(t, eng, b, "c", 4)
	net.Heal()
	wantRows(t, "partition", reg, map[string]int64{
		"a/link.b.dropped": 3, "a/link.c.dropped": 2, "b/link.c.dropped": 4,
	})

	c.CrashAfter(7, 1)
	calls(t, eng, a, "c", 1)
	c.Revive()
	wantRows(t, "scripted crash", reg, map[string]int64{
		"a/link.b.dropped": 3, "a/link.c.dropped": 3, "b/link.c.dropped": 4,
	})

	// Duplicate the replies b sends a: the requests a -> b stay clean.
	net.FaultLink("b", "a", FaultSpec{Dup: 1})
	calls(t, eng, a, "b", 2)
	net.ClearFaults()
	wantRows(t, "dup fault", reg, map[string]int64{
		"a/link.b.dropped": 3, "a/link.c.dropped": 3, "b/link.c.dropped": 4,
		"b/link.a.duplicated": 2,
	})
}

// TestSetObsMovesLinkCounts: after SetObs switches registries, faults are
// counted in the new one and the old one keeps what it had.
func TestSetObsMovesLinkCounts(t *testing.T) {
	eng, net, a, _, _ := threeHosts(t, 2)
	old := obs.NewRegistry()
	net.SetObs(old)
	net.FaultLink("a", "b", FaultSpec{Drop: 1})
	calls(t, eng, a, "b", 2)

	cur := obs.NewRegistry()
	net.SetObs(cur)
	calls(t, eng, a, "b", 1)
	wantRows(t, "old registry", old, map[string]int64{"a/link.b.dropped": 2})
	wantRows(t, "new registry", cur, map[string]int64{"a/link.b.dropped": 1})
}
