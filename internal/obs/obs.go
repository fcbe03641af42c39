// Package obs is the observability layer: a metrics registry (counters,
// gauges, HDR histograms) and a span tracer, both running entirely
// on simulated time. The paper evaluated migration with a handful of
// hand-timed numbers; this package is the general version — every subsystem
// (kernel, core stream engine, netsim, migd transactions, ha guardians)
// reports through it, and migsim/migbench render the results.
//
// Design constraints, in order:
//
//  1. No wall clock. Every timestamp is a sim.Time; the same seed produces
//     the same metrics and the same trace, bit for bit.
//  2. Zero allocations on hot paths. Callers resolve counters once (get-or-
//     create returns a stable pointer) and increment through the pointer;
//     Observe on a histogram touches only a fixed array. The simulation
//     engine runs one task at a time, and every hand-off from one task's
//     goroutine to the next is a channel operation that orders their
//     memory accesses, so plain int64 arithmetic is safe without atomics.
//  3. Deterministic output. Snapshots sort by host then name.
package obs

import (
	"sort"
	"sync"

	"procmig/internal/sim"
)

// Counter is a monotonically increasing value.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (negative n is tolerated but unconventional).
func (c *Counter) Add(n int64) { c.v += n }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a value that can move both ways (queue depths, live bytes).
type Gauge struct{ v int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v = n }

// Add moves the value by n.
func (g *Gauge) Add(n int64) { g.v += n }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v }

// Scope is one host's (or one subsystem's) named metrics. Get-or-create
// lookups return stable pointers, so wiring code resolves each metric once
// and hot paths pay only a pointer dereference.
type Scope struct {
	host string
	reg  *Registry

	counters map[string]*Counter
	gauges   map[string]*Gauge
	// hdrs is every histogram the scope renders: the plain ones and the
	// all-time totals of the windowed ones, which share one namespace.
	hdrs  map[string]*HDR
	winds map[string]*WindowedHDR
}

// Counter returns the named counter, creating it on first use.
func (s *Scope) Counter(name string) *Counter {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	c := s.counters[name]
	if c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (s *Scope) Gauge(name string) *Gauge {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// HDR returns the named histogram, creating it on first use. Create it
// where the first value arrives, not at wiring time: an HDR is a ~7.7 KB
// array, which a scope that never observes anything should not carry.
func (s *Scope) HDR(name string) *HDR {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	h := s.hdrs[name]
	if h == nil {
		h = &HDR{}
		s.hdrs[name] = h
	}
	return h
}

// Windowed returns the named windowed HDR histogram, creating it with the
// given window width on first use (later callers get the original regardless
// of width). This is the latency instrument: all-time quantiles for
// Snapshot/Totals plus a sealed-window time series for timeline export.
func (s *Scope) Windowed(name string, width sim.Duration) *WindowedHDR {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	w := s.winds[name]
	if w == nil {
		w = NewWindowedHDR(width)
		s.winds[name] = w
		s.hdrs[name] = &w.total
	}
	return w
}

// Host reports which host the scope belongs to.
func (s *Scope) Host() string { return s.host }

// Registry holds every host's scope plus the cluster's one shared Tracer,
// so a single handle wires a whole cluster. The mutex covers scope and
// metric creation (cold path only) and concurrent test engines.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]*Scope
	Tracer *Tracer
}

// NewRegistry creates an empty registry with a fresh tracer.
func NewRegistry() *Registry {
	return &Registry{scopes: map[string]*Scope{}, Tracer: NewTracer()}
}

// Scope returns the named host's scope, creating it on first use.
func (r *Registry) Scope(host string) *Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.scopes[host]
	if s == nil {
		s = &Scope{
			host: host, reg: r,
			counters: map[string]*Counter{},
			gauges:   map[string]*Gauge{},
			hdrs:     map[string]*HDR{},
			winds:    map[string]*WindowedHDR{},
		}
		r.scopes[host] = s
	}
	return s
}

// Hosts lists the scopes in sorted order.
func (r *Registry) Hosts() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.scopes))
	for h := range r.scopes {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Row is one rendered metric: a counter or gauge Value, or a histogram
// (Value = sum, Detail = count and quantiles).
type Row struct {
	Host   string
	Name   string
	Value  int64
	Detail string // histograms: HDR.Summary; otherwise empty
}

// Snapshot renders every metric, sorted by host then name — deterministic
// for a deterministic run.
func (r *Registry) Snapshot() []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Row
	for host, s := range r.scopes {
		for name, c := range s.counters {
			out = append(out, Row{Host: host, Name: name, Value: c.v})
		}
		for name, g := range s.gauges {
			out = append(out, Row{Host: host, Name: name, Value: g.v})
		}
		for name, h := range s.hdrs {
			out = append(out, Row{Host: host, Name: name, Value: h.sum, Detail: h.Summary()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CounterRows renders only the counters, sorted by host then name.
// Counters are monotone by contract while gauges move both ways, and
// Snapshot does not distinguish them — invariant checkers that assert "no
// counter ever regresses" need this narrower view.
func (r *Registry) CounterRows() []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Row
	for host, s := range r.scopes {
		for name, c := range s.counters {
			out = append(out, Row{Host: host, Name: name, Value: c.v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Totals renders the cluster-wide view, sorted by name: counters and gauges
// of the same name sum across hosts, and histograms of the same name *merge*
// — bucket-wise, so the merged quantiles are the quantiles of the union
// (averaging per-host percentiles would be wrong).
func (r *Registry) Totals() []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	sums := map[string]int64{}
	hdrs := map[string]*HDR{}
	for _, s := range r.scopes {
		for name, c := range s.counters {
			sums[name] += c.v
		}
		for name, g := range s.gauges {
			sums[name] += g.v
		}
		for name, h := range s.hdrs {
			m := hdrs[name]
			if m == nil {
				m = &HDR{}
				hdrs[name] = m
			}
			m.Merge(h)
		}
	}
	out := make([]Row, 0, len(sums)+len(hdrs))
	for name, v := range sums {
		out = append(out, Row{Name: name, Value: v})
	}
	for name, h := range hdrs {
		out = append(out, Row{Name: name, Value: h.sum, Detail: h.Summary()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
