package controller_test

import (
	"testing"

	"procmig/internal/controller"
	"procmig/internal/errno"
)

// metric reads one counter by name; the harness registry holds a single
// controller, so the name alone identifies the row.
func metric(h *harness, name string) int64 {
	for _, r := range h.reg.Snapshot() {
		if r.Name == name {
			return r.Value
		}
	}
	return 0
}

// TestDrainFailureReasonCounters: every failed drain move lands in both
// the total and exactly one per-reason bucket, keyed by errno — so a
// dashboard can tell a migd timeout storm from a permission problem.
func TestDrainFailureReasonCounters(t *testing.T) {
	h := newHarness(t, controller.Config{DrainWave: 4}, "a", "b")
	if err := h.c.Submit(controller.AppSpec{Name: "web", Path: "/bin/web", Replicas: 4}); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 3)
	if h.f.countOn("/bin/web")["b"] == 0 {
		t.Fatal("precondition: nothing placed on b")
	}
	h.f.failMigrate["b"] = true
	h.f.migrateErr = errno.ETIMEDOUT
	if err := h.c.Drain("b"); err != nil {
		t.Fatal(err)
	}
	h.rounds(t, 2)
	if metric(h, "controller.drain_failed.timeout") == 0 {
		t.Fatalf("timeout failures not bucketed: total=%d", metric(h, "controller.drain_failed"))
	}
	h.f.migrateErr = errno.EPERM
	h.rounds(t, 2)
	if metric(h, "controller.drain_failed.denied") == 0 {
		t.Fatal("EPERM failures not bucketed as denied")
	}
	h.f.migrateErr = nil // the fake's generic error → the "other" bucket
	h.rounds(t, 2)
	if metric(h, "controller.drain_failed.other") == 0 {
		t.Fatal("unclassified failures not bucketed as other")
	}
	byReason := metric(h, "controller.drain_failed.timeout") +
		metric(h, "controller.drain_failed.denied") +
		metric(h, "controller.drain_failed.other")
	if total := metric(h, "controller.drain_failed"); total != byReason {
		t.Fatalf("total %d != sum of reason buckets %d", total, byReason)
	}
	h.f.failMigrate["b"] = false
	h.rounds(t, 4)
	if ds, _ := h.c.DrainStatus("b"); !ds.Done {
		t.Fatalf("drain never recovered: %+v", ds)
	}
}
