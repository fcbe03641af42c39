package main

import (
	"runtime"
	"strings"
	"time"

	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

const mib = 1 << 20

// span is one host-time region the benchmark recorded around its own
// calls: a phase (Parent 0, Layer "phase") or a call into one layer
// made inside a phase.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // host seconds since the rep began
	End    float64 `json:"end_s"`
}

// rep runs one repetition of a workload and measures it. Phases before
// the first measured one are set-up. Measured phases give wall_s,
// alloc_mb and the simulated time wall_ms_per_sim_s divides by; work
// counts are differenced across them.
type rep struct {
	prof *profiler // traced reps only

	start time.Time
	spans []span
	phase int // ID of the open phase span

	eng   *sim.Engine
	at    sim.Time // simulated time the harness has run to
	reg   *obs.Registry
	hosts []*netsim.Host

	measuring bool
	setup     time.Duration
	wall      time.Duration
	simTime   sim.Duration
	phaseWall map[string]float64

	ms       runtime.MemStats
	heapPeak uint64
	alloc0   uint64
	allocEnd uint64

	base      map[string]int64 // counters when measuring began
	baseStats sim.Stats
	baseSpans int
}

func newRep(prof *profiler) *rep {
	return &rep{prof: prof, start: time.Now(), phaseWall: map[string]float64{}}
}

func (r *rep) since() float64 { return time.Since(r.start).Seconds() }

// attach points the rep at the simulation it measures.
func (r *rep) attach(eng *sim.Engine, reg *obs.Registry, hosts []*netsim.Host) {
	r.eng, r.reg, r.hosts = eng, reg, hosts
}

// run executes one phase. The first measured phase ends set-up: the
// counters are snapshotted and, in a traced rep, profiling starts.
func (r *rep) run(name string, measured bool, fn func() error) error {
	if measured && !r.measuring {
		r.setup = time.Since(r.start)
		r.bench(func() {
			r.base = collect(r.reg, r.hosts)
			r.baseStats = r.eng.Stats()
			r.baseSpans = len(r.reg.Tracer.Spans())
		})
		if r.prof != nil {
			if err := r.prof.begin(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&r.ms)
		r.alloc0, r.allocEnd = r.ms.TotalAlloc, r.ms.TotalAlloc
		r.measuring = true
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Layer: "phase", Name: name, Start: r.since()})
	r.phase = id
	t0 := time.Now()
	var s0 sim.Time
	if r.eng != nil {
		s0 = r.now()
	}
	err := fn()
	d := time.Since(t0)
	r.spans[id-1].End = r.since()
	r.phase = 0
	r.phaseWall[name] += d.Seconds()
	if measured {
		r.wall += d
		r.simTime += sim.Duration(r.now() - s0)
		runtime.ReadMemStats(&r.ms)
		r.allocEnd = r.ms.TotalAlloc
	}
	r.sampleHeap()
	return err
}

// call records a span around one call into a layer when tracing.
func (r *rep) call(layer, name string, fn func() error) error {
	if r.prof == nil {
		return fn()
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: r.phase, Layer: layer, Name: name, Start: r.since()})
	err := fn()
	r.spans[i].End = r.since()
	return err
}

// bench runs harness bookkeeping: liveness checks, counter snapshots and
// the harvest. Profile samples whose stack passes through it are
// bucketed as bench, so it must stay a real frame and must not start
// simulation tasks.
//
//go:noinline
func (r *rep) bench(fn func()) { fn() }

// check is bench for a predicate.
func (r *rep) check(ok func() bool) bool {
	var v bool
	r.bench(func() { v = ok() })
	return v
}

// checkErr is bench for a gate.
func (r *rep) checkErr(gate func() error) error {
	var err error
	r.bench(func() { err = gate() })
	return err
}

// now is the simulated time the harness has run to. The engine's clock
// stops at the last event before a RunUntil limit, so it can lag.
func (r *rep) now() sim.Time {
	if t := r.eng.Now(); t > r.at {
		r.at = t
	}
	return r.at
}

// step advances the simulation by d; step boundaries are where
// heap_peak_mb is sampled.
func (r *rep) step(d sim.Duration) error {
	to := r.now() + sim.Time(d)
	err := r.call("sim", "RunUntil", func() error { return r.eng.RunUntil(to) })
	r.at = to
	r.sampleHeap()
	return err
}

// stepUntil steps by d until ok holds, failing after budget of
// simulated time. It returns the simulated time it took.
func (r *rep) stepUntil(what string, d, budget sim.Duration, ok func() bool) (sim.Duration, error) {
	from := r.now()
	for !r.check(ok) {
		if sim.Duration(r.now()-from) >= budget {
			return 0, gateErr("%s did not finish within %v of simulated time", what, budget)
		}
		if err := r.step(d); err != nil {
			return 0, err
		}
	}
	return sim.Duration(r.now() - from), nil
}

// within is stepUntil over a fixed window: once ok holds it runs on to
// the window's end, so every seed simulates the same span and does
// comparable host work. It returns how long ok took to hold.
func (r *rep) within(what string, d, window sim.Duration, ok func() bool) (sim.Duration, error) {
	end := r.now() + sim.Time(window)
	took, err := r.stepUntil(what, d, window, ok)
	if err != nil {
		return 0, err
	}
	if rest := sim.Duration(end - r.now()); rest > 0 {
		err = r.step(rest)
	}
	return took, err
}

func (r *rep) sampleHeap() {
	runtime.ReadMemStats(&r.ms)
	if r.ms.HeapInuse > r.heapPeak {
		r.heapPeak = r.ms.HeapInuse
	}
}

// result folds the rep's measurements into the record the parent
// aggregates. simulated holds the workload's simulated end-to-end
// metrics; work gains the layer counts differenced over the measured
// phases.
func (r *rep) result(simulated, work map[string]float64, attempted, failed int64) *repResult {
	r.bench(func() {
		end := collect(r.reg, r.hosts)
		for k, v := range end {
			work[k] = float64(v - r.base[k])
		}
		st := r.eng.Stats()
		work["sim.events"] = float64(st.Dispatched - r.baseStats.Dispatched)
		work["sim.event_allocs"] = float64(st.EventAllocs - r.baseStats.EventAllocs)
		work["sim.heap_max"] = float64(st.HeapMax)
		work["obs.spans"] = float64(len(r.reg.Tracer.Spans()) - r.baseSpans)
		work["kernel.sys_cpu_s"] = work["kernel.sys_cpu_us"] / 1e6
		delete(work, "kernel.sys_cpu_us")
		addRatios(work)
		simulated["wire_mb"] = work["netsim.bytes"] / mib
	})
	return &repResult{
		Setup:     r.setup.Seconds(),
		Wall:      r.wall.Seconds(),
		SimS:      float64(r.simTime) / float64(sim.Second),
		HeapPeak:  float64(r.heapPeak) / mib,
		Alloc:     float64(r.allocEnd-r.alloc0) / mib,
		PhaseWall: r.phaseWall,
		Sim:       simulated,
		Work:      work,
		Attempted: attempted,
		Failed:    failed,
	}
}

// collect reads every registry counter a per-layer work count comes
// from, plus the hosts' traffic counters.
func collect(reg *obs.Registry, hosts []*netsim.Host) map[string]int64 {
	out := make(map[string]int64, len(registryCounts)+4)
	for _, name := range registryCounts {
		out[name] = 0
	}
	out["netsim.dropped"] = 0
	for _, row := range reg.Totals() {
		if _, ok := out[row.Name]; ok {
			out[row.Name] = row.Value
		} else if strings.HasPrefix(row.Name, "link.") && strings.HasSuffix(row.Name, ".dropped") {
			out["netsim.dropped"] += row.Value
		}
	}
	for _, h := range hosts {
		st := h.Stats()
		out["netsim.msgs"] += st.MsgsOut
		out["netsim.bytes"] += st.BytesOut
		out["netsim.bytes_elided"] += st.BytesElided
	}
	return out
}

// addRatios adds each useful/attempted ratio next to its base.
func addRatios(w map[string]float64) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	w["pagestore.lookups"] = w["pagestore.hits"] + w["pagestore.misses"]
	w["pagestore.hit_ratio"] = ratio(w["pagestore.hits"], w["pagestore.lookups"])
	w["stream.spec_hit_ratio"] = ratio(w["stream.pages_spec"]-w["stream.spec_nacks"], w["stream.pages_spec"])
	w["stream.raw_bytes"] = w["stream.wire_bytes"] + w["stream.saved_bytes"]
	w["stream.saved_ratio"] = ratio(w["stream.saved_bytes"], w["stream.raw_bytes"])
	w["migd.txns"] = w["migd.txn_commits"] + w["migd.txn_aborts"]
	w["migd.commit_ratio"] = ratio(w["migd.txn_commits"], w["migd.txns"])
	w["hb.beacon_ok_ratio"] = ratio(w["hb.beacons_out"]-w["hb.beacon_fail"], w["hb.beacons_out"])
}
