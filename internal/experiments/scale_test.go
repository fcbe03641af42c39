package experiments

import "testing"

// TestA11Smoke runs the scale scenario at CI-smoke size: enough hosts
// that each beacon round reaches only a few peers (fanout ≪ N), small
// enough to finish in well under a second. Every A11 invariant —
// convergence, sub-quadratic traffic, wave detection and recovery, proc
// conservation — is asserted inside A11Scale itself.
func TestA11Smoke(t *testing.T) {
	r, err := A11Scale(A11Config{Hosts: 60, Procs: 600, Intervals: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.GossipK >= r.Hosts-1 {
		t.Fatalf("fanout %d is full mesh at N=%d: not exercising gossip", r.GossipK, r.Hosts)
	}
	if r.Migrations == 0 {
		t.Fatalf("no churn migrations happened")
	}
	if r.ConvergedIn <= 0 {
		t.Fatalf("no convergence recorded")
	}
}

// TestA11Deterministic: the same seed gives the same virtual history —
// migrations and events are byte-for-byte replays.
func TestA11Deterministic(t *testing.T) {
	a, err := A11Scale(A11Config{Hosts: 40, Procs: 200, Intervals: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := A11Scale(A11Config{Hosts: 40, Procs: 200, Intervals: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Migrations != b.Migrations || a.Events != b.Events {
		t.Fatalf("same seed diverged: migrations %d vs %d, events %d vs %d",
			a.Migrations, b.Migrations, a.Events, b.Events)
	}
}
