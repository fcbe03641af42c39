package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"procmig/internal/sim"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("brick")
	c := s.Counter("x.count")
	if again := s.Counter("x.count"); again != c {
		t.Fatal("get-or-create returned a different counter pointer")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := s.Gauge("x.gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	h := s.HDR("x.hist")
	for _, v := range []int64{50, 500, 5_000_000, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 50+500+5_000_000+(1<<40) {
		t.Fatalf("histogram sum = %d", h.Sum())
	}
	if again := s.HDR("x.hist"); again != h {
		t.Fatal("get-or-create returned a different histogram pointer")
	}
}

func TestSnapshotDeterministicAndTotals(t *testing.T) {
	reg := NewRegistry()
	reg.Scope("zeta").Counter("migd.streams").Add(2)
	reg.Scope("alpha").Counter("migd.streams").Add(3)
	reg.Scope("alpha").Counter("kernel.dumps").Inc()
	a := reg.Snapshot()
	b := reg.Snapshot()
	if len(a) != 3 || len(a) != len(b) {
		t.Fatalf("snapshot has %d rows, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snapshot not deterministic at row %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Host-then-name order.
	if a[0].Host != "alpha" || a[0].Name != "kernel.dumps" || a[2].Host != "zeta" {
		t.Fatalf("snapshot order wrong: %+v", a)
	}
	totals := reg.Totals()
	want := map[string]int64{"kernel.dumps": 1, "migd.streams": 5}
	for _, row := range totals {
		if row.Value != want[row.Name] {
			t.Fatalf("total %s = %d, want %d", row.Name, row.Value, want[row.Name])
		}
		delete(want, row.Name)
	}
	if len(want) != 0 {
		t.Fatalf("totals missing %v", want)
	}
}

func TestTracerRootRetryChild(t *testing.T) {
	tr := NewTracer()
	root := tr.Root(42, "migration", "alpha", 7, 100)
	if root == nil || root.Parent != 0 {
		t.Fatal("no root span")
	}
	if again := tr.Root(42, "echo", "beta", 9, 200); again != root {
		t.Fatal("second Root call forked the trace")
	}
	c0 := tr.Child(42, "dump", "alpha", 7, 110)
	if c0.Parent != root.ID || c0.Attempt != 0 {
		t.Fatalf("child 0: parent %d attempt %d", c0.Parent, c0.Attempt)
	}
	tr.Retry(42)
	c1 := tr.Child(42, "dump", "alpha", 7, 120)
	if root.Attempt != 1 || c1.Attempt != 1 {
		t.Fatalf("retry not recorded: root %d child %d", root.Attempt, c1.Attempt)
	}
	// Still exactly one root for the txn.
	if got := len(tr.Roots()); got != 1 {
		t.Fatalf("%d roots after retry, want 1", got)
	}
	trace := tr.Trace(42)
	if len(trace) != 3 || trace[0] != root {
		t.Fatalf("Trace(42) = %d spans, root first %v", len(trace), trace[0] == root)
	}
}

func TestTracerPlaceholderAndNil(t *testing.T) {
	tr := NewTracer()
	// A child arriving before any root creates a placeholder root, so a
	// reordered cross-host message can never split the trace.
	c := tr.Child(9, "spool", "beta", 3, 50)
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "txn" || c.Parent != roots[0].ID {
		t.Fatalf("placeholder root wrong: %+v", roots)
	}
	// Untracked txn and nil tracer both yield nil spans; End must not panic.
	if tr.Root(0, "x", "h", 1, 0) != nil || tr.Child(0, "x", "h", 1, 0) != nil {
		t.Fatal("txn 0 produced a span")
	}
	var nilTr *Tracer
	if nilTr.Root(1, "x", "h", 1, 0) != nil {
		t.Fatal("nil tracer produced a span")
	}
	nilTr.Retry(1)
	var nilSpan *Span
	nilSpan.End(10)
	nilSpan.EndDetail(10, "ok")
}

// Two migrations in flight at once, both retried, with their span messages
// interleaved so each transaction's first span is a child on a *different*
// host than the client (the reordered-placeholder edge): each txn must still
// stitch into exactly one root, the late client registration must claim the
// placeholder in place (same span ID, upgraded name/host/pid), and retry
// attempts must never bleed between transactions.
func TestTracerConcurrentRetriedMigrations(t *testing.T) {
	tr := NewTracer()

	// txn A: destination's spool span lands before the client registers.
	spoolA := tr.Child(0xA1, "spool", "dstA", 9, 100)
	// txn B: source's freeze span lands before *its* client registers.
	freezeB := tr.Child(0xB2, "freeze", "srcB", 4, 105)
	phA := tr.roots[0xA1]
	if phA == nil || phA.Name != "txn" || spoolA.Parent != phA.ID {
		t.Fatalf("txn A placeholder wrong: %+v", phA)
	}

	// Clients register late, interleaved, each upgrading its own placeholder.
	rootA := tr.Root(0xA1, "migration", "clientA", 7, 90)
	rootB := tr.Root(0xB2, "migration", "clientB", 3, 95)
	if rootA != phA || rootA.ID != spoolA.Parent {
		t.Fatal("txn A root forked instead of claiming the placeholder")
	}
	if rootA.Name != "migration" || rootA.Host != "clientA" || rootA.PID != 7 {
		t.Fatalf("placeholder not upgraded: %+v", rootA)
	}
	if rootA.Start != 90 {
		t.Fatalf("root A start = %d, want the earliest time seen (90)", rootA.Start)
	}
	if rootB.ID != freezeB.Parent || rootB.Host != "clientB" {
		t.Fatalf("txn B cross-wired: %+v", rootB)
	}

	// Interleaved retries: A twice, B once. Children record their own txn's
	// attempt at creation time.
	tr.Retry(0xA1)
	c1 := tr.Child(0xB2, "dump", "srcB", 4, 110)
	tr.Retry(0xB2)
	tr.Retry(0xA1)
	c2 := tr.Child(0xA1, "spool", "dstA", 9, 120)
	c3 := tr.Child(0xB2, "restart", "dstB", 4, 130)
	if rootA.Attempt != 2 || rootB.Attempt != 1 {
		t.Fatalf("attempts bled: A=%d B=%d", rootA.Attempt, rootB.Attempt)
	}
	if c1.Attempt != 0 || c2.Attempt != 2 || c3.Attempt != 1 {
		t.Fatalf("child attempts = %d/%d/%d, want 0/2/1", c1.Attempt, c2.Attempt, c3.Attempt)
	}

	// Exactly one root per txn, ordered by start time; a second Root call
	// must not re-upgrade or move anything.
	if again := tr.Root(0xA1, "echo", "elsewhere", 1, 200); again != rootA || rootA.Name != "migration" {
		t.Fatal("second Root call disturbed the upgraded root")
	}
	roots := tr.Roots()
	if len(roots) != 2 || roots[0] != rootA || roots[1] != rootB {
		t.Fatalf("roots = %v", roots)
	}
	for _, txn := range []uint32{0xA1, 0xB2} {
		trace := tr.Trace(txn)
		if trace[0].Parent != 0 {
			t.Fatalf("txn %x trace not root-first", txn)
		}
		for _, sp := range trace[1:] {
			if sp.Parent != trace[0].ID || sp.Txn != txn {
				t.Fatalf("txn %x span stitched to wrong root: %+v", txn, sp)
			}
		}
	}
	if len(tr.Trace(0xA1)) != 3 || len(tr.Trace(0xB2)) != 4 {
		t.Fatalf("trace sizes = %d/%d, want 3/4", len(tr.Trace(0xA1)), len(tr.Trace(0xB2)))
	}
}

func TestWriteTimeline(t *testing.T) {
	tr := NewTracer()
	root := tr.Root(7, "migration", "alpha", 5, 100)
	ch := tr.Child(7, "restart", "beta", 5, 200)
	ch.EndDetail(300, "pid 9")
	root.End(350)
	open := tr.Child(7, "hang", "gamma", 5, 320) // left unfinished on purpose
	_ = open

	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tr, []string{"alpha", "beta"}); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	// 3 process_name metadata events (gamma discovered from spans) + 3 spans.
	var meta, spans, unfinished int
	pids := map[float64]bool{}
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
			pids[ev["pid"].(float64)] = true
		case "X":
			spans++
			if args, ok := ev["args"].(map[string]any); ok && args["unfinished"] == true {
				unfinished++
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 3 || spans != 3 || unfinished != 1 {
		t.Fatalf("meta %d spans %d unfinished %d, want 3/3/1", meta, spans, unfinished)
	}
	if len(pids) != 3 || pids[0] {
		t.Fatalf("host pids not distinct and 1-based: %v", pids)
	}
}

func TestTimelineTimesAreSimMicroseconds(t *testing.T) {
	tr := NewTracer()
	sp := tr.Root(1, "m", "h", 1, sim.Time(2500))
	sp.End(sim.Time(4000))
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			continue
		}
		if ev["ts"].(float64) != 2500 || ev["dur"].(float64) != 1500 {
			t.Fatalf("ts/dur = %v/%v, want 2500/1500", ev["ts"], ev["dur"])
		}
	}
}
