package experiments

import (
	"fmt"
	"strings"
	"testing"

	"procmig/internal/apps"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/scenario"
	"procmig/internal/sim"
)

func TestA10Observability(t *testing.T) {
	r, err := A10Observability()
	if err != nil {
		t.Fatal(err)
	}
	if r.Roots != 1 || r.RootName != "migration" || r.RootDetail != "committed" {
		t.Fatalf("root: %d × %q (%q), want one committed migration", r.Roots, r.RootName, r.RootDetail)
	}
	if r.ClientSpans == 0 || r.SourceSpans == 0 || r.DestSpans == 0 {
		t.Fatalf("trace not stitched: client %d source %d dest %d", r.ClientSpans, r.SourceSpans, r.DestSpans)
	}
	if !r.TimelineValid || r.TimelineEvents < r.Spans {
		t.Fatalf("timeline: valid=%v events=%d spans=%d", r.TimelineValid, r.TimelineEvents, r.Spans)
	}
	if r.MetricRows == 0 {
		t.Fatal("registry is empty after a migration")
	}
	if r.AllocsObs > 2 || r.AllocsObs > r.AllocsBase+0.5 {
		t.Fatalf("instrumented send path allocates %.1f/round (base %.1f)", r.AllocsObs, r.AllocsBase)
	}
}

// spanRun drives one streaming migration of the a6 hog under the given
// faults and returns the cluster's tracer plus the client's exit status.
func spanRun(t *testing.T, seed uint64, dropPct int, crash bool) (*obs.Tracer, int) {
	t.Helper()
	c, err := boot(kernel.Config{TrackNames: true}, "alpha", "beta", "gamma")
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.Seed(seed)
	if err := c.InstallVM("/bin/spanhog", scenario.HogSrc(64<<10, 8<<10)); err != nil {
		t.Fatal(err)
	}
	status := -1
	c.Eng.Go("driver", func(tk *sim.Task) {
		hog, serr := c.Spawn("alpha", nil, user, "/bin/spanhog")
		if serr != nil {
			t.Error(serr)
			return
		}
		for hog.VM == nil && hog.State == kernel.ProcRunning {
			tk.Sleep(sim.Second)
		}
		tk.Sleep(2 * sim.Second)
		if crash {
			// Past the hello and the first few chunks: inside round one.
			c.NetHost("beta").CrashAfter(apps.MigdStreamPort, 10)
		} else if dropPct > 0 {
			spec := netsim.FaultSpec{Drop: float64(dropPct) / 100, Dup: float64(dropPct) / 200}
			c.Net.FaultPort(apps.MigdPort, spec)
			c.Net.FaultPort(apps.MigdPrecopyPort, spec)
			c.Net.FaultPort(apps.MigdStreamPort, spec)
		}
		mig, serr := c.Spawn("gamma", nil, user, "/bin/rmigrate",
			"-p", fmt.Sprint(hog.PID), "-f", "alpha", "-t", "beta",
			"-s", "-r", "2", "-n", "4")
		if serr != nil {
			t.Error(serr)
			return
		}
		status = mig.AwaitExit(tk)
		for _, name := range c.Names() {
			for _, p := range c.Machine(name).Procs() {
				c.Machine(name).Kill(kernel.Creds{}, p.PID, kernel.SIGKILL)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Obs.Tracer, status
}

// migrationRoots filters the tracer's roots down to migration traces.
func migrationRoots(tr *obs.Tracer) []*obs.Span {
	var out []*obs.Span
	for _, sp := range tr.Roots() {
		if sp.Name == "migration" {
			out = append(out, sp)
		}
	}
	return out
}

// TestSpanAbortedRetriesOneRoot crashes the destination mid-transfer: the
// client retries the transaction (same id) until its attempts run out and
// aborts. The trace must stay ONE root — retry-annotated, ended with the
// abort verdict — never a root per attempt.
func TestSpanAbortedRetriesOneRoot(t *testing.T) {
	tr, status := spanRun(t, 0x5eed, 0, true)
	if status == 0 {
		t.Fatal("migration to a crashed destination reported success")
	}
	roots := migrationRoots(tr)
	if len(roots) != 1 {
		t.Fatalf("%d migration roots after retries, want exactly 1", len(roots))
	}
	root := roots[0]
	if root.Attempt < 1 {
		t.Fatalf("root.Attempt = %d after a retried transaction, want >= 1", root.Attempt)
	}
	if !root.Ended || !strings.HasPrefix(root.Detail, "aborted") {
		t.Fatalf("root not sealed aborted: ended=%v detail=%q", root.Ended, root.Detail)
	}
	// The per-attempt children carry the attempt they ran under, so the
	// retries are visible inside the single trace.
	maxAttempt := 0
	for _, sp := range tr.Trace(root.Txn)[1:] {
		if sp.Attempt > maxAttempt {
			maxAttempt = sp.Attempt
		}
	}
	if maxAttempt < 1 {
		t.Fatal("no child span recorded under a retry attempt")
	}
}

// TestSpanDropsStillOneRoot runs under 20% chunk drops: whatever the
// outcome, the trace must remain a single sealed root per transaction and
// the client root must agree with the exit status.
func TestSpanDropsStillOneRoot(t *testing.T) {
	tr, status := spanRun(t, 0xabcde, 20, false)
	roots := migrationRoots(tr)
	if len(roots) != 1 {
		t.Fatalf("%d migration roots, want exactly 1", len(roots))
	}
	root := roots[0]
	if !root.Ended {
		t.Fatal("migration root left open")
	}
	if status == 0 && root.Detail != "committed" {
		t.Fatalf("exit 0 but root says %q", root.Detail)
	}
	if status != 0 && !strings.HasPrefix(root.Detail, "aborted") {
		t.Fatalf("exit %d but root says %q", status, root.Detail)
	}
	// No placeholder roots: every child found the client's root.
	for _, sp := range tr.Roots() {
		if sp.Name == "txn" {
			t.Fatalf("placeholder root leaked into the trace: %v", sp)
		}
	}
}
