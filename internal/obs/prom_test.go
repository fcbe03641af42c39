package obs

import (
	"bytes"
	"strings"
	"testing"

	"procmig/internal/sim"
)

func promFixture() *Registry {
	reg := NewRegistry()
	// Insertion order deliberately scrambled: output order must not follow it.
	reg.Scope("zeta").Counter("migd.streams").Add(2)
	reg.Scope("alpha").Counter("migd.streams").Add(3)
	reg.Scope("alpha").Counter("kernel.dumps").Inc()
	reg.Scope("alpha").Gauge("migd.txn_table").Set(7)
	h := reg.Scope("zeta").HDR("net.rtt_us")
	h.Observe(50)
	h.Observe(2_000_000)
	w := reg.Scope("lg0").Windowed("load.latency_us", sim.Second)
	w.Observe(sim.Time(10), 1500)
	w.Observe(sim.Time(20), 2500)
	return reg
}

func TestWritePromDeterministic(t *testing.T) {
	reg := promFixture()
	var a, b bytes.Buffer
	if err := WriteProm(&a, reg); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, reg); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same registry differ")
	}
	out := a.String()

	// Families in kind-then-name order; samples host-sorted within a family.
	wantOrder := []string{
		"# TYPE procmig_kernel_dumps counter",
		`procmig_kernel_dumps{host="alpha"} 1`,
		"# TYPE procmig_migd_streams counter",
		`procmig_migd_streams{host="alpha"} 3`,
		`procmig_migd_streams{host="zeta"} 2`,
		"# TYPE procmig_migd_txn_table gauge",
		`procmig_migd_txn_table{host="alpha"} 7`,
		"# TYPE procmig_load_latency_us summary",
		`procmig_load_latency_us{host="lg0",quantile="0.5"} `,
		`procmig_load_latency_us_count{host="lg0"} 2`,
		"# TYPE procmig_net_rtt_us summary",
		`procmig_net_rtt_us{host="zeta",quantile="0.5"} `,
		`procmig_net_rtt_us{host="zeta",quantile="0.99"} `,
		`procmig_net_rtt_us_sum{host="zeta"} 2000050`,
		`procmig_net_rtt_us_count{host="zeta"} 2`,
	}
	pos := -1
	for _, want := range wantOrder {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
		if i < pos {
			t.Fatalf("%q out of order in:\n%s", want, out)
		}
		pos = i
	}
	// One histogram kind: no native-histogram family is left.
	if strings.Contains(out, " histogram\n") || strings.Contains(out, "_bucket{") {
		t.Fatalf("histogram rendered with buckets:\n%s", out)
	}
	// Every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "procmig_") || !strings.Contains(line, "} ") {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"kernel.dumps":         "procmig_kernel_dumps",
		"load.latency_us":      "procmig_load_latency_us",
		"weird-name.2x":        "procmig_weird_name_2x",
		"kernel.trace_dropped": "procmig_kernel_trace_dropped",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
