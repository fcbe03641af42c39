package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"procmig/internal/core"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/scenario"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// --- A10: observability -------------------------------------------------------

// A10Result proves the two observability claims end to end:
//
//  1. One streaming pre-copy migration yields ONE stitched trace: a single
//     root span under the transaction id, with child spans recorded on the
//     client, the source, and the destination — never a root per host.
//     The trace exports as parseable Chrome trace-event JSON.
//  2. The metrics instrumentation is free on the steady-state send path:
//     SendRound with pre-resolved counters attached allocates no more than
//     the uninstrumented path.
type A10Result struct {
	RootName    string // name of the migration's root span
	RootDetail  string // its outcome annotation
	Roots       int    // root spans named "migration" (must be 1)
	Spans       int    // total spans in the trace
	ClientSpans int    // children recorded on gamma (the invoking host)
	SourceSpans int    // children recorded on alpha (the source)
	DestSpans   int    // children recorded on beta (the destination)

	TimelineEvents int  // Chrome trace events exported
	TimelineValid  bool // the export re-parsed as JSON
	MetricRows     int  // registry rows after the run

	AllocsBase float64 // steady-state SendRound allocs, no instrumentation
	AllocsObs  float64 // same with StreamObs counters + per-link net counters
}

// A10Observability runs one pre-copy migration (fmigrate -s -r 2, invoked
// on gamma, alpha → beta) on a shared-registry cluster, then audits the
// trace, the timeline export and the hot-path allocation cost.
func A10Observability() (*A10Result, error) {
	c, err := boot(kernel.Config{TrackNames: true}, "alpha", "beta", "gamma")
	if err != nil {
		return nil, err
	}
	if err := c.InstallVM("/bin/a10hog", scenario.HogSrc(128<<10, 8<<10)); err != nil {
		return nil, err
	}
	var status int
	var fail error
	c.Eng.Go("driver", func(tk *sim.Task) {
		hog, serr := c.Spawn("alpha", nil, user, "/bin/a10hog")
		if serr != nil {
			fail = serr
			return
		}
		for hog.VM == nil && hog.State == kernel.ProcRunning {
			tk.Sleep(sim.Second)
		}
		tk.Sleep(2 * sim.Second)
		mig, serr := c.Spawn("gamma", nil, user, "/bin/fmigrate",
			"-p", fmt.Sprint(hog.PID), "-f", "alpha", "-t", "beta", "-s", "-r", "2")
		if serr != nil {
			fail = serr
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
		return nil, err
	}
	if fail != nil {
		return nil, fail
	}
	if status != 0 {
		return nil, fmt.Errorf("fmigrate exited %d", status)
	}

	res := &A10Result{}
	tr := c.Obs.Tracer
	var root *obs.Span
	for _, sp := range tr.Roots() {
		if sp.Name == "migration" {
			res.Roots++
			root = sp
		}
	}
	if root == nil {
		return nil, fmt.Errorf("a10: no migration root span recorded")
	}
	if res.Roots != 1 {
		return nil, fmt.Errorf("a10: %d migration roots, want exactly 1", res.Roots)
	}
	res.RootName, res.RootDetail = root.Name, root.Detail
	for _, sp := range tr.Trace(root.Txn) {
		res.Spans++
		if sp.Parent == 0 {
			continue
		}
		switch sp.Host {
		case "gamma":
			res.ClientSpans++
		case "alpha":
			res.SourceSpans++
		case "beta":
			res.DestSpans++
		}
	}
	if res.SourceSpans == 0 || res.DestSpans == 0 {
		return nil, fmt.Errorf("a10: trace not stitched across hosts (alpha %d, beta %d children)",
			res.SourceSpans, res.DestSpans)
	}

	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, tr, c.Names()); err != nil {
		return nil, err
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return nil, fmt.Errorf("a10: timeline is not valid JSON: %v", err)
	}
	for _, ev := range events {
		if _, ok := ev["ph"].(string); !ok {
			return nil, fmt.Errorf("a10: timeline event without phase: %v", ev)
		}
	}
	res.TimelineEvents = len(events)
	res.TimelineValid = true
	res.MetricRows = len(c.Obs.Snapshot())

	if res.AllocsBase, err = a10SendAllocs(false); err != nil {
		return nil, err
	}
	if res.AllocsObs, err = a10SendAllocs(true); err != nil {
		return nil, err
	}
	return res, nil
}

// a10Sink assembles the far side of the alloc-measurement stream.
type a10Sink struct {
	asm *core.ImageAssembler
	err error
}

func (s *a10Sink) Chunk(_ *sim.Task, rec []byte) {
	if s.err == nil {
		s.err = s.asm.Apply(rec)
	}
}
func (s *a10Sink) Done(_ *sim.Task) []byte { return core.EncodeStreamStatus(0) }
func (s *a10Sink) Abort(_ *sim.Task)       {}

// a10SendAllocs measures steady-state SendRound heap allocations over a
// real netsim stream — the same loop BenchmarkAssembler pins at ≤2
// allocs/op — optionally with the full metrics instrumentation attached
// (pre-resolved StreamObs counters plus the network's per-link counters).
func a10SendAllocs(instrumented bool) (float64, error) {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	src := net.AddHost("src")
	net.AddHost("dst")
	text := make([]byte, 256)
	data := make([]byte, 16*vm.PageSize)
	for i := range data {
		data[i] = byte(i >> 2)
	}
	var sink *a10Sink
	dstHost, _ := net.Host("dst")
	dstHost.ListenStream(9, func(_ *sim.Task, _ string, hello []byte) (netsim.StreamSink, error) {
		asm, err := core.NewImageAssembler(hello)
		if err != nil {
			return nil, err
		}
		sink = &a10Sink{asm: asm}
		return sink, nil
	})
	cpu := vm.New(text, data, vm.MinISA(text))
	cpu.SetDirtyTracking(true)
	hello := &core.StreamHello{PID: 1, TextLen: uint32(len(text)), DataLen: uint32(len(data))}
	st, err := src.OpenStream(nil, "dst", 9, hello.Encode())
	if err != nil {
		return 0, err
	}
	sess := &core.StreamSession{Stream: st}
	if instrumented {
		reg := obs.NewRegistry()
		sess.Obs = core.NewStreamObs(reg.Scope("src"))
		net.SetObs(reg)
	}
	costs := kernel.DefaultCosts()
	charge := func(sim.Duration) {}
	dataBase := vm.DataBase(len(text))
	var roundErr error
	round := func(i int) {
		cpu.WriteU32(dataBase+uint32(i%16)*vm.PageSize, uint32(i))
		if err := sess.SendRound(nil, cpu, costs, charge); err != nil && roundErr == nil {
			roundErr = err
		}
	}
	for i := 0; i < 32; i++ { // warm the pools, maps, and counter sets
		round(i)
	}
	avg := testing.AllocsPerRun(100, func() { round(1000) })
	if roundErr != nil {
		return 0, roundErr
	}
	if sink.err != nil {
		return 0, sink.err
	}
	return avg, nil
}
