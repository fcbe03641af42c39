package experiments

import "testing"

// TestA14Smoke runs the dedup scenario at CI-smoke size. The hard
// gates — byte ratio, strict makespan win, spec refs only in store
// mode, exact loss accounting, adoption-based heal, exact final
// census — are asserted inside A14Dedup itself. The reduced replica
// count lowers the achievable byte ratio (the first wave always pays
// full price), so the gate scales down with it.
func TestA14Smoke(t *testing.T) {
	r, err := A14Dedup(A14Config{
		Hosts: 24, Replicas: 8, DataKiB: 384, Seed: 14, MinBytesRatio: 1.5,
	})
	if err != nil {
		if r != nil {
			t.Logf("raw:     %+v", r.Raw)
			t.Logf("session: %+v", r.Session)
			t.Logf("store:   %+v", r.Store)
		}
		t.Fatal(err)
	}
	if r.Store.StoreEvict != 0 {
		// The default budget holds one replica image with room to
		// spare; evictions at this scale mean the budget accounting
		// regressed.
		t.Fatalf("store evicted %d entries at smoke scale", r.Store.StoreEvict)
	}
}

// TestA14Deterministic: the same seed replays the same virtual
// history in every mode — byte counts, makespans, and event totals.
func TestA14Deterministic(t *testing.T) {
	run := func() *A14Result {
		r, err := A14Dedup(A14Config{
			Hosts: 16, Replicas: 6, DataKiB: 384, Seed: 7, MinBytesRatio: 1.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	for _, pair := range [][2]A14Mode{{a.Raw, b.Raw}, {a.Session, b.Session}, {a.Store, b.Store}} {
		x, y := pair[0], pair[1]
		if x.DrainBytes != y.DrainBytes || x.DrainS != y.DrainS ||
			x.SpecPages != y.SpecPages || x.SpecNacks != y.SpecNacks ||
			x.HealS != y.HealS || x.Adoptions != y.Adoptions ||
			x.CkptBytes != y.CkptBytes {
			t.Fatalf("same seed diverged in %s:\n%+v\n%+v", x.Mode, x, y)
		}
	}
	if a.Events != b.Events {
		t.Fatalf("same seed dispatched %d vs %d events", a.Events, b.Events)
	}
}
