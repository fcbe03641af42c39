package obs

import (
	"fmt"
	"io"
	"sort"
)

// Prometheus text exposition: the registry rendered in the format every
// standard scrape/paste tool understands. Output is fully deterministic —
// families sorted by metric name, samples sorted by host — so two renders
// of the same registry are byte-identical and diffs are meaningful.
//
// Mapping: counters and gauges keep their kind; HDR histograms (plain or
// windowed) become summary families (pre-computed quantile={0.5,0.99,0.999}
// samples plus _sum/_count), since their log-spaced buckets have no useful
// `le` rendering.

// promName mangles a dotted metric name into the prometheus charset with
// the repo's namespace prefix: "kernel.dump_real_us" → "procmig_kernel_dump_real_us".
func promName(name string) string {
	out := make([]byte, 0, len(name)+8)
	out = append(out, "procmig_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// WriteProm renders the registry in Prometheus text exposition format.
func WriteProm(w io.Writer, r *Registry) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	hosts := make([]string, 0, len(r.scopes))
	for h := range r.scopes {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)

	// One family per (kind, name); names collected per kind so a family's
	// samples can be emitted host-sorted in one pass.
	names := func(pick func(s *Scope) []string) []string {
		set := map[string]bool{}
		for _, s := range r.scopes {
			for _, n := range pick(s) {
				set[n] = true
			}
		}
		out := make([]string, 0, len(set))
		for n := range set {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	var err error
	p := func(format string, a ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, a...)
		}
	}

	for _, name := range names(func(s *Scope) []string {
		out := make([]string, 0, len(s.counters))
		for n := range s.counters {
			out = append(out, n)
		}
		return out
	}) {
		pn := promName(name)
		p("# TYPE %s counter\n", pn)
		for _, h := range hosts {
			if c, ok := r.scopes[h].counters[name]; ok {
				p("%s{host=%q} %d\n", pn, h, c.v)
			}
		}
	}

	for _, name := range names(func(s *Scope) []string {
		out := make([]string, 0, len(s.gauges))
		for n := range s.gauges {
			out = append(out, n)
		}
		return out
	}) {
		pn := promName(name)
		p("# TYPE %s gauge\n", pn)
		for _, h := range hosts {
			if g, ok := r.scopes[h].gauges[name]; ok {
				p("%s{host=%q} %d\n", pn, h, g.v)
			}
		}
	}

	for _, name := range names(func(s *Scope) []string {
		out := make([]string, 0, len(s.hdrs))
		for n := range s.hdrs {
			out = append(out, n)
		}
		return out
	}) {
		pn := promName(name)
		p("# TYPE %s summary\n", pn)
		for _, h := range hosts {
			t, ok := r.scopes[h].hdrs[name]
			if !ok {
				continue
			}
			p("%s{host=%q,quantile=\"0.5\"} %d\n", pn, h, t.P50())
			p("%s{host=%q,quantile=\"0.99\"} %d\n", pn, h, t.P99())
			p("%s{host=%q,quantile=\"0.999\"} %d\n", pn, h, t.P999())
			p("%s_sum{host=%q} %d\n", pn, h, t.sum)
			p("%s_count{host=%q} %d\n", pn, h, t.n)
		}
	}
	return err
}
