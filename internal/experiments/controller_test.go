package experiments

import "testing"

// TestA13Smoke runs the controller scenario at CI-smoke size: enough
// hosts that each beacon round reaches only a few peers (so liveness
// news reaches the controller mostly by gossip), small enough for a
// single-digit-second run. The invariants — bounded
// convergence, exact crash-wave loss accounting, respawn-per-loss,
// wave-counted drain, zero final deficit — are asserted inside
// A13Controller itself.
func TestA13Smoke(t *testing.T) {
	r, err := A13Controller(A13Config{Hosts: 60, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReplicasLost < int64(r.CrashWave) {
		t.Fatalf("crash wave of %d hosts lost only %d replicas", r.CrashWave, r.ReplicasLost)
	}
	if r.DrainWaves < 2 {
		t.Fatalf("drain finished in %d waves — not exercising the rate limit", r.DrainWaves)
	}
	if r.ConvergeRounds <= 0 || r.HealRounds <= 0 {
		t.Fatalf("no reconcile rounds recorded: %+v", r)
	}
}

// TestA13Deterministic: the same seed gives the same virtual history —
// every convergence time, round count, and the event total replay
// exactly.
func TestA13Deterministic(t *testing.T) {
	run := func() *A13Result {
		r, err := A13Controller(A13Config{Hosts: 24, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.ConvergeS != b.ConvergeS || a.ConvergeRounds != b.ConvergeRounds ||
		a.HealS != b.HealS || a.HealRounds != b.HealRounds ||
		a.Respawns != b.Respawns || a.ReplicasLost != b.ReplicasLost ||
		a.DrainHost != b.DrainHost || a.DrainS != b.DrainS ||
		a.DrainWaves != b.DrainWaves || a.DrainMoves != b.DrainMoves ||
		a.Events != b.Events {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
