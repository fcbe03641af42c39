// Package load is the SLI plane's request source: seeded open-loop
// generators that submit work against target processes *through the
// kernel's run queue*, so what gets measured is what a client would see.
//
// The paper evaluates migration from the machine's side — freeze seconds,
// image bytes. A client doesn't experience bytes; it experiences the
// requests it sent while the server happened to be frozen, dumping, or
// restarting. Each generator models that client: arrivals are scheduled
// open-loop (the next request is due whether or not the previous one
// finished — a stalled server cannot slow the offered load, which is what
// makes tail latency honest), queue FIFO at the server, wait while the
// server is frozen (kernel.Proc.Dumping) or mid-restart (no live copy of
// the lineage anywhere), then charge their service time through
// sim.Resource — the same run queue the migration engine's own CPU charges
// ride, so a dump competes with request service exactly as it would on the
// paper's VAXen.
//
// Completion latency lands in a windowed HDR histogram (internal/obs); a
// request that breaches its SLO leaves a breach record that blame.go later
// matches against the tracer's migration-phase spans. The per-request path
// allocates nothing in steady state.
package load

import (
	"fmt"

	"procmig/internal/kernel"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// SLO is a latency/loss objective: breach records are kept for requests
// slower than P99Target, and CheckSLO compares the observed p99 and drop
// count against it. Zero values mean "no objective".
type SLO struct {
	P99     sim.Duration // observed p99 must be <= this
	Dropped int64        // observed drops must be <= this
}

// Config describes one generator.
type Config struct {
	Name     string       // generator name; also its obs scope
	Interval sim.Duration // mean open-loop inter-arrival time
	Service  sim.Duration // CPU one request consumes on the server's machine
	Timeout  sim.Duration // client abandonment: queued longer than this → dropped (0 = never)
	Window   sim.Duration // latency time-series window width (0 = 1s)
	SLO      SLO
}

// TargetFn locates the current live incarnation of the server process.
// It is called on simulated time `now` and may return (nil, false) while
// the process is between incarnations (restarting after a migration or a
// guardian recovery).
type TargetFn func(now sim.Time) (*kernel.Proc, bool)

// Breach is the record a too-slow (or dropped) request leaves behind for
// phase attribution.
type Breach struct {
	Arrival   sim.Time     `json:"arrival"`
	Done      sim.Time     `json:"done"` // completion or drop instant
	Latency   sim.Duration `json:"latency_us"`
	HostStart string       `json:"host_start"` // where the server first appeared to this request
	Host      string       `json:"host"`       // where it was finally served ("" if dropped unserved)
	Dropped   bool         `json:"dropped,omitempty"`
	Phase     string       `json:"phase,omitempty"` // filled by Attribute
}

// Stats is a generator's cumulative outcome.
type Stats struct {
	Submitted int64        `json:"submitted"`
	Completed int64        `json:"completed"`
	Dropped   int64        `json:"dropped"`
	Breaches  int64        `json:"breaches"`
	P50       sim.Duration `json:"p50_us"`
	P99       sim.Duration `json:"p99_us"`
	P999      sim.Duration `json:"p999_us"`
	Max       sim.Duration `json:"max_us"`
}

// pollInterval bounds how stale a generator's view of a frozen/absent
// server may be; it is the latency resolution floor during a stall.
const pollInterval = 500 * sim.Microsecond

// Generator is one synthetic client. Create with Start.
type Generator struct {
	cfg    Config
	eng    *sim.Engine
	target TargetFn

	// arrivals is a FIFO ring of arrival timestamps: the arrival task
	// pushes, the server task pops. Amortized growth only while a stall
	// backs requests up.
	arrivals []sim.Time
	head     int
	wake     sim.Queue
	stopped  bool
	aborted  bool
	done     bool

	lat       *obs.WindowedHDR
	submitted *obs.Counter
	completed *obs.Counter
	dropped   *obs.Counter
	breachCtr *obs.Counter

	breaches []Breach
}

// Start wires a generator into the engine and begins submitting. The scope
// should be reg.Scope(cfg.Name) so per-generator series stay distinct while
// Totals merges them.
func Start(eng *sim.Engine, scope *obs.Scope, cfg Config, target TargetFn) *Generator {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * sim.Millisecond
	}
	if cfg.Service <= 0 {
		cfg.Service = sim.Millisecond
	}
	g := &Generator{
		cfg: cfg, eng: eng, target: target,
		arrivals:  make([]sim.Time, 0, 256),
		breaches:  make([]Breach, 0, 64),
		lat:       scope.Windowed("load.latency_us", cfg.Window),
		submitted: scope.Counter("load.submitted"),
		completed: scope.Counter("load.completed"),
		dropped:   scope.Counter("load.dropped"),
		breachCtr: scope.Counter("load.slo_breaches"),
	}
	eng.Go(cfg.Name+"/arrivals", g.arrive)
	eng.Go(cfg.Name+"/client", g.serve)
	return g
}

// arrive is the open-loop schedule: one arrival per interval with seeded
// ±half-interval jitter, submitted regardless of server health.
func (g *Generator) arrive(tk *sim.Task) {
	for !g.stopped {
		d := g.cfg.Interval/2 + sim.Duration(g.eng.Rand()%uint64(g.cfg.Interval))
		tk.Sleep(d)
		if g.stopped {
			break
		}
		g.arrivals = append(g.arrivals, tk.Now())
		g.submitted.Inc()
		g.wake.Wake(1)
	}
	g.wake.WakeAll() // unblock the client so it can notice the stop
}

// serve drains arrivals FIFO. After Stop the backlog is still served (or
// dropped by timeout) so the counters settle to submitted==completed+dropped.
func (g *Generator) serve(tk *sim.Task) {
	for {
		if g.head == len(g.arrivals) {
			if g.stopped {
				g.done = true
				g.wake.WakeAll()
				return
			}
			tk.WaitTimeout(&g.wake, 10*sim.Millisecond)
			continue
		}
		arrival := g.arrivals[g.head]
		g.head++
		if g.head == len(g.arrivals) { // ring empty: reset to keep it small
			g.arrivals = g.arrivals[:0]
			g.head = 0
		}
		g.request(tk, arrival)
	}
}

// request runs one work item to completion or abandonment.
func (g *Generator) request(tk *sim.Task, arrival sim.Time) {
	hostStart := ""
	for {
		now := tk.Now()
		if g.aborted {
			// Teardown with the target gone for good: fail the request
			// without a breach record — this is harness shutdown, not a
			// service observation.
			g.dropped.Inc()
			return
		}
		if g.cfg.Timeout > 0 && sim.Duration(now-arrival) > g.cfg.Timeout {
			g.dropped.Inc()
			g.breachCtr.Inc()
			g.breaches = append(g.breaches, Breach{
				Arrival: arrival, Done: now,
				Latency:   sim.Duration(now - arrival),
				HostStart: hostStart, Dropped: true,
			})
			return
		}
		p, ok := g.target(now)
		if ok && p != nil && p.State == kernel.ProcRunning {
			if hostStart == "" {
				hostStart = p.M.Name
			}
			if !p.Dumping {
				// Live and thawed: ride the server machine's run queue.
				p.M.CPU().Use(tk, g.cfg.Service, nil)
				done := tk.Now()
				lat := int64(done - arrival)
				g.completed.Inc()
				g.lat.Observe(done, lat)
				if g.cfg.SLO.P99 > 0 && sim.Duration(lat) > g.cfg.SLO.P99 {
					g.breachCtr.Inc()
					g.breaches = append(g.breaches, Breach{
						Arrival: arrival, Done: done,
						Latency:   sim.Duration(lat),
						HostStart: hostStart, Host: p.M.Name,
					})
				}
				return
			}
		}
		tk.Sleep(pollInterval)
	}
}

// Stop ends the arrival schedule. The already-queued backlog still drains;
// Drained reports when it has.
func (g *Generator) Stop() {
	g.stopped = true
	g.wake.WakeAll()
}

// Drained reports whether the generator has stopped and served (or
// dropped) every submitted request.
func (g *Generator) Drained() bool { return g.done }

// AwaitDrained parks until the backlog has fully drained (call after Stop).
func (g *Generator) AwaitDrained(tk *sim.Task) {
	for !g.done {
		tk.WaitTimeout(&g.wake, 50*sim.Millisecond)
	}
}

// AwaitDrainedFor is AwaitDrained with a deadline; reports whether the
// backlog drained in time.
func (g *Generator) AwaitDrainedFor(tk *sim.Task, d sim.Duration) bool {
	deadline := tk.Now() + sim.Time(d)
	for !g.done && tk.Now() < deadline {
		tk.WaitTimeout(&g.wake, 50*sim.Millisecond)
	}
	return g.done
}

// Abort stops the schedule AND fails every queued/in-flight request as
// dropped, without breach records: the teardown path for scenarios that
// end with the target permanently dead (otherwise the pending requests
// would poll forever and the engine would never quiesce).
func (g *Generator) Abort() {
	g.stopped = true
	g.aborted = true
	g.wake.WakeAll()
}

// Stats summarizes the generator so far.
func (g *Generator) Stats() Stats {
	t := g.lat.Total()
	return Stats{
		Submitted: g.submitted.Value(),
		Completed: g.completed.Value(),
		Dropped:   g.dropped.Value(),
		Breaches:  int64(len(g.breaches)),
		P50:       sim.Duration(t.P50()),
		P99:       sim.Duration(t.P99()),
		P999:      sim.Duration(t.P999()),
		Max:       sim.Duration(t.Max()),
	}
}

// Latency exposes the all-time latency histogram (merge from it for
// cross-generator quantiles).
func (g *Generator) Latency() *obs.HDR { return g.lat.Total() }

// Series exposes the sealed latency windows.
func (g *Generator) Series() []obs.WindowPoint { return g.lat.Series() }

// Breaches exposes the breach records for attribution. The slice is live;
// Attribute writes the Phase field in place.
func (g *Generator) Breaches() []Breach { return g.breaches }

// CheckSLO compares the outcome against the configured objective; nil if
// it held (or none was set).
func (g *Generator) CheckSLO() error {
	st := g.Stats()
	if g.cfg.SLO.P99 > 0 && st.P99 > g.cfg.SLO.P99 {
		return fmt.Errorf("%s: p99 %v breaches SLO %v (%d/%d requests over)",
			g.cfg.Name, st.P99, g.cfg.SLO.P99, st.Breaches, st.Completed)
	}
	if g.cfg.SLO.P99 > 0 && st.Dropped > g.cfg.SLO.Dropped {
		return fmt.Errorf("%s: dropped %d breaches budget %d",
			g.cfg.Name, st.Dropped, g.cfg.SLO.Dropped)
	}
	return nil
}
