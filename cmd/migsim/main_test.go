package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/sim"
)

// runScript executes a migsim script against a fresh two-machine cluster
// and returns the cluster for inspection.
func runScript(t *testing.T, script [][]string) (*cluster.Cluster, *session) {
	t.Helper()
	c, err := cluster.NewSimple("brick", "schooner")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM("/bin/counter", cluster.TestProgramSrc); err != nil {
		t.Fatal(err)
	}
	s := &session{c: c}
	c.Eng.Go("driver", func(tk *sim.Task) {
		for _, cmd := range script {
			if err := s.exec(tk, cmd); err != nil {
				t.Errorf("%v: %v", cmd, err)
				return
			}
		}
	})
	if err := c.RunUntil(sim.Time(600 * sim.Second)); err != nil {
		if _, stalled := err.(*sim.StallError); !stalled {
			t.Fatal(err)
		}
	}
	return c, s
}

func TestScriptMigration(t *testing.T) {
	c, s := runScript(t, [][]string{
		{"run", "brick", "/bin/counter"},
		{"sleep", "2"},
		{"type", "brick", "hello"},
		{"sleep", "2"},
		{"migrate", "schooner", "$1", "brick", "schooner"},
		{"sleep", "2"},
		{"type", "schooner", "world"},
		{"sleep", "2"},
		{"eof", "schooner"},
		{"time"},
	})
	if len(s.pids) != 1 {
		t.Fatalf("pids = %v", s.pids)
	}
	out, err := c.Machine("brick").NS().ReadFile("/home/out")
	if err != nil || string(out) != "hello\nworld\n" {
		t.Fatalf("out = %q err = %v", out, err)
	}
	if !strings.Contains(c.Console("schooner").Output(), "R3 D3 S3") {
		t.Fatalf("schooner console = %q", c.Console("schooner").Output())
	}
}

func TestScriptPsKillCat(t *testing.T) {
	c, _ := runScript(t, [][]string{
		{"run", "brick", "/bin/counter"},
		{"sleep", "1"},
		{"ps", "brick"},
		{"kill", "brick", "$1", "9"},
		{"sleep", "1"},
		{"tty", "brick"},
	})
	if n := len(c.Machine("brick").Procs()); n != 0 {
		t.Fatalf("%d procs left after kill", n)
	}
}

func TestScriptMetricsSpansTimeline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	c, _ := runScript(t, [][]string{
		{"run", "brick", "/bin/counter"},
		{"sleep", "2"},
		{"run", "schooner", "/bin/fmigrate", "-p", "1", "-f", "brick", "-t", "schooner", "-s", "-r", "2"},
		{"sleep", "30"},
		{"metrics"},
		{"metrics", "brick"},
		{"spans"},
		{"timeline", out},
	})
	if len(c.Obs.Snapshot()) == 0 {
		t.Fatal("metrics registry empty after a migration")
	}
	var root bool
	for _, sp := range c.Obs.Tracer.Roots() {
		if sp.Name == "migration" {
			root = true
		}
	}
	if !root {
		t.Fatal("no migration root span recorded")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	var spans int
	for _, ev := range events {
		if ev["ph"] == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("timeline export has no span events")
	}
}

func TestScriptErrors(t *testing.T) {
	c, err := cluster.NewSimple("brick")
	if err != nil {
		t.Fatal(err)
	}
	s := &session{c: c}
	bad := [][]string{
		{"frobnicate"},
		{"run", "brick"},       // missing path
		{"kill", "brick", "x"}, // bad pid
		{"ps", "ghost"},        // unknown host
		{"sleep", "NaN"},
	}
	c.Eng.Go("driver", func(tk *sim.Task) {
		for _, cmd := range bad {
			if err := s.exec(tk, cmd); err == nil {
				t.Errorf("%v: expected an error", cmd)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPidReferences(t *testing.T) {
	s := &session{pids: []int{101, 202}}
	if pid, err := s.pid("$2"); err != nil || pid != 202 {
		t.Fatalf("$2 = %d, %v", pid, err)
	}
	if pid, err := s.pid("77"); err != nil || pid != 77 {
		t.Fatalf("77 = %d, %v", pid, err)
	}
	for _, bad := range []string{"$0", "$3", "$x", "abc"} {
		if _, err := s.pid(bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

// TestScriptController drives the desired-state layer entirely from
// script commands: start the controller, declare an app, drain a host,
// and read the status back.
func TestScriptController(t *testing.T) {
	c, _ := runScript(t, [][]string{
		{"controller", "start", "brick"},
		{"sleep", "5"},
		{"controller", "submit", "web", "/bin/counter", "2"},
		{"sleep", "30"},
		{"controller", "status"},
		{"controller", "drain", "schooner"},
		{"sleep", "30"},
		{"controller", "status"},
	})
	ctl := c.Controller()
	if ctl == nil {
		t.Fatal("controller never started")
	}
	st := ctl.Status()
	if len(st.Apps) != 1 || st.Apps[0].Live != 2 {
		t.Fatalf("app status = %+v", st.Apps)
	}
	d, ok := ctl.DrainStatus("schooner")
	if !ok || !d.Done || d.Failed != 0 {
		t.Fatalf("drain status = %+v ok=%v", d, ok)
	}
	for _, r := range st.Apps[0].Replicas {
		if r.Host == "schooner" {
			t.Fatalf("replica still on drained host: %+v", r)
		}
	}
}

// TestScriptControllerErrors: controller subcommands validate loudly.
func TestScriptControllerErrors(t *testing.T) {
	c, err := cluster.NewSimple("brick")
	if err != nil {
		t.Fatal(err)
	}
	s := &session{c: c}
	bad := [][]string{
		{"controller"},           // no subcommand
		{"controller", "status"}, // not started
		{"controller", "submit", "web", "/bin/x", "2"}, // not started
		{"controller", "drain", "brick"},               // not started
		{"controller", "start"},                        // missing host
		{"controller", "start", "ghost"},               // unknown host
		{"controller", "flush"},                        // unknown subcommand
	}
	c.Eng.Go("driver", func(tk *sim.Task) {
		for _, cmd := range bad {
			if err := s.exec(tk, cmd); err == nil {
				t.Errorf("%v: expected an error", cmd)
			}
		}
	})
	if err := c.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		if _, stalled := err.(*sim.StallError); !stalled {
			t.Fatal(err)
		}
	}
}

// TestScriptStatusAndProm: the loss/occupancy dashboard and the
// Prometheus exposition both render after a migration.
func TestScriptStatusAndProm(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	captured := make(chan string, 1)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		captured <- sb.String()
	}()
	runScript(t, [][]string{
		{"run", "brick", "/bin/counter"},
		{"sleep", "2"},
		{"run", "schooner", "/bin/fmigrate", "-p", "1", "-f", "brick", "-t", "schooner", "-s", "-r", "2"},
		{"sleep", "30"},
		{"status"},
		{"metrics", "-format", "prom"},
	})
	w.Close()
	os.Stdout = old
	out := <-captured
	for _, want := range []string{
		"status:", "trace_drops", "frozen", "txn_table", "txn_evicted",
		"# TYPE procmig_stream_wire_bytes counter",
		"procmig_migd_txn_table{host=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// Unknown formats fail loudly rather than falling back to the table.
	c, err := cluster.NewSimple("brick")
	if err != nil {
		t.Fatal(err)
	}
	s := &session{c: c}
	c.Eng.Go("driver", func(tk *sim.Task) {
		if err := s.exec(tk, []string{"metrics", "-format", "xml"}); err == nil {
			t.Error("metrics -format xml: expected an error")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
