// Command migsim boots a simulated cluster and executes a script of
// commands against it — the closest thing to sitting at a 1987 Sun
// terminal this repository offers. The script comes from stdin or from a
// file argument; see -help for the command set.
//
// Example session (also examples/quickstart):
//
//	migsim -hosts brick,schooner <<'EOF'
//	run brick /bin/counter
//	sleep 2
//	type brick hello
//	sleep 2
//	migrate schooner $1 brick schooner
//	sleep 2
//	type schooner world
//	sleep 2
//	eof schooner
//	tty brick
//	tty schooner
//	EOF
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

const usage = `script commands (one per line, # comments):
  run <host> <path> [args...]   spawn a program; its pid becomes $1, $2, ...
  type <host> <text>            type a line on the host's console (newline added)
  eof <host>                    type end-of-file on the console
  sleep <seconds>               advance virtual time
  ps <host>                     print the process table
  kill <host> <pid> [signal#]   send a signal (default SIGTERM)
  dumpproc <host> <pid>         run dumpproc on the host and wait
  restart <host> <pid> <from>   run restart on the host and wait
  migrate <host> <pid> <from> <to>   run migrate on the host and wait
  cat <host> <path>             print a file
  tty <host>                    print the console transcript so far
  trace <host> on|off           toggle the ktrace-style kernel event log
  tracelog <host>               print the kernel event log
  controller start <host>       start heartbeats + the desired-state controller on a host
  controller submit <name> <path> <n> [spread|binpack]   declare an app of n replicas
  controller drain <host>       start a rolling drain of a host
  controller status             print desired vs. observed state and drain progress
  metrics [host]                print the metrics registry (all hosts + totals)
  metrics -format prom          print the registry in Prometheus text exposition
  status                        print per-host loss/occupancy gauges (trace drops,
                                frozen procs, migd table occupancy + evictions)
  spans                         print the migration span traces
  timeline <file>               export spans + latency series as Chrome trace JSON
  time                          print the virtual clock
Pids: $N refers to the pid of the N-th 'run'.`

func main() {
	hostsFlag := flag.String("hosts", "brick,schooner", "comma-separated host names")
	sun3Flag := flag.String("sun3", "", "comma-separated hosts that are Sun-3s (ISA2)")
	spoof := flag.Bool("spoof", false, "enable the §7 pid/hostname spoofing extension")
	limit := flag.Int("limit", 3600, "virtual-time limit in seconds")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: migsim [flags] [script]\n%s\n\nflags:\n", usage)
		flag.PrintDefaults()
	}
	flag.Parse()

	sun3 := map[string]bool{}
	for _, h := range strings.Split(*sun3Flag, ",") {
		if h != "" {
			sun3[h] = true
		}
	}
	var hosts []cluster.HostSpec
	for _, h := range strings.Split(*hostsFlag, ",") {
		isa := vm.ISA1
		if sun3[h] {
			isa = vm.ISA2
		}
		hosts = append(hosts, cluster.HostSpec{Name: h, ISA: isa})
	}
	c, err := cluster.New(cluster.Options{
		Hosts:  hosts,
		Config: kernel.Config{TrackNames: true, PidSpoof: *spoof},
	})
	fatal(err)
	fatal(c.InstallVM("/bin/counter", cluster.TestProgramSrc))
	fatal(c.InstallVM("/bin/hog", cluster.HogSrc))

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		fatal(err)
		defer f.Close()
		in = f
	}
	var script [][]string
	scanner := bufio.NewScanner(in)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		script = append(script, strings.Fields(line))
	}
	fatal(scanner.Err())

	s := &session{c: c}
	c.Eng.Go("migsim-driver", func(tk *sim.Task) {
		for _, cmd := range script {
			if err := s.exec(tk, cmd); err != nil {
				fmt.Fprintf(os.Stderr, "migsim: %s: %v\n", strings.Join(cmd, " "), err)
				return
			}
		}
	})
	if err := c.RunUntil(sim.Time(sim.Duration(*limit) * sim.Second)); err != nil {
		if _, stalled := err.(*sim.StallError); !stalled {
			fatal(err)
		}
		// Blocked processes at the end of the script are normal.
	}
}

// ts renders the virtual clock for log prefixes.
func ts(tk *sim.Task) string { return sim.Duration(tk.Now()).String() }

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "migsim:", err)
		os.Exit(1)
	}
}

type session struct {
	c    *cluster.Cluster
	pids []int
}

// pid resolves a "$N" reference or a literal pid.
func (s *session) pid(arg string) (int, error) {
	if strings.HasPrefix(arg, "$") {
		n, err := strconv.Atoi(arg[1:])
		if err != nil || n < 1 || n > len(s.pids) {
			return 0, fmt.Errorf("bad pid reference %q", arg)
		}
		return s.pids[n-1], nil
	}
	return strconv.Atoi(arg)
}

func (s *session) runAndWait(tk *sim.Task, host, path string, args ...string) error {
	p, err := s.c.Spawn(host, nil, cluster.DefaultUser, path, args...)
	if err != nil {
		return err
	}
	status, migrated := p.AwaitExitOrMigrated(tk)
	if migrated {
		fmt.Printf("[%v] %s: %s restarted the process as pid %d\n", ts(tk), host, path, p.PID)
		return nil
	}
	fmt.Printf("[%v] %s: %s exited %d\n", ts(tk), host, path, status)
	return nil
}

// controller dispatches the desired-state subcommands. `start` boots the
// HA heartbeat plane too (the controller's observed state is the view),
// so a script only needs one line before submitting apps.
func (s *session) controller(tk *sim.Task, cmd []string) error {
	switch cmd[0] {
	case "start":
		if len(cmd) < 2 {
			return fmt.Errorf("controller start wants a host")
		}
		if s.c.HA(cmd[1]) == nil {
			if err := s.c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
				return err
			}
		}
		if _, err := s.c.StartController(cmd[1], controller.Config{}); err != nil {
			return err
		}
		fmt.Printf("[%v] controller running on %s\n", ts(tk), cmd[1])
	case "submit":
		if len(cmd) < 4 {
			return fmt.Errorf("controller submit wants name, path, replicas")
		}
		n, err := strconv.Atoi(cmd[3])
		if err != nil {
			return fmt.Errorf("bad replica count %q", cmd[3])
		}
		spec := controllerSpec(cmd[1], cmd[2], n)
		if len(cmd) > 4 {
			spec.Policy = cmd[4]
		}
		ctl := s.c.Controller()
		if ctl == nil {
			return fmt.Errorf("no controller running (use 'controller start')")
		}
		if err := ctl.Submit(spec); err != nil {
			return err
		}
		fmt.Printf("[%v] submitted app %s: %d × %s\n", ts(tk), cmd[1], n, cmd[2])
		tk.Yield()
	case "drain":
		if len(cmd) < 2 {
			return fmt.Errorf("controller drain wants a host")
		}
		if err := s.c.DrainHost(cmd[1]); err != nil {
			return err
		}
		fmt.Printf("[%v] draining %s\n", ts(tk), cmd[1])
	case "status":
		ctl := s.c.Controller()
		if ctl == nil {
			return fmt.Errorf("no controller running (use 'controller start')")
		}
		st := ctl.Status()
		conv := "converging"
		if st.Converged() {
			conv = "converged"
		}
		fmt.Printf("[%v] controller: round %d, %s\n", ts(tk), st.Round, conv)
		for _, a := range st.Apps {
			fmt.Printf("  app %-12s desired %d, live %d, pending %d\n",
				a.Name, a.Desired, a.Live, a.Pending)
			for _, r := range a.Replicas {
				fmt.Printf("    slot %d: %s pid %d %s\n", r.Slot, r.Host, r.PID, r.State)
			}
		}
		for _, d := range st.Drains {
			state := fmt.Sprintf("%d remaining", d.Remaining)
			if d.Done {
				state = fmt.Sprintf("done in %v", d.Makespan)
			}
			fmt.Printf("  drain %-10s %d waves, %d moved, %d failed, %s\n",
				d.Host, d.Waves, d.Moved, d.Failed, state)
		}
	default:
		return fmt.Errorf("unknown controller subcommand %q", cmd[0])
	}
	return nil
}

// controllerSpec builds the default migsim app spec: spread placement,
// no constraints — the script can exercise policy via the optional arg.
func controllerSpec(name, path string, n int) controller.AppSpec {
	return controller.AppSpec{Name: name, Path: path, Replicas: n}
}

func (s *session) exec(tk *sim.Task, cmd []string) error {
	need := func(n int) error {
		if len(cmd) < n+1 {
			return fmt.Errorf("wants %d argument(s)", n)
		}
		return nil
	}
	switch cmd[0] {
	case "run":
		if err := need(2); err != nil {
			return err
		}
		p, err := s.c.Spawn(cmd[1], nil, cluster.DefaultUser, cmd[2], cmd[3:]...)
		if err != nil {
			return err
		}
		s.pids = append(s.pids, p.PID)
		fmt.Printf("[%v] %s: started %s as pid %d ($%d)\n", ts(tk), cmd[1], cmd[2], p.PID, len(s.pids))
		tk.Yield()
	case "type":
		if err := need(2); err != nil {
			return err
		}
		s.c.Console(cmd[1]).Type(strings.Join(cmd[2:], " ") + "\n")
		tk.Yield()
	case "eof":
		if err := need(1); err != nil {
			return err
		}
		s.c.Console(cmd[1]).TypeEOF()
		tk.Yield()
	case "sleep":
		if err := need(1); err != nil {
			return err
		}
		sec, err := strconv.ParseFloat(cmd[1], 64)
		if err != nil {
			return err
		}
		if math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
			return fmt.Errorf("bad duration %q", cmd[1])
		}
		tk.Sleep(sim.Duration(sec * float64(sim.Second)))
	case "ps":
		if err := need(1); err != nil {
			return err
		}
		m := s.c.Machine(cmd[1])
		if m == nil {
			return fmt.Errorf("no host %q", cmd[1])
		}
		fmt.Printf("[%v] %s: %5s %5s %5s %-9s %10s %10s  %s\n",
			ts(tk), cmd[1], "PID", "PPID", "UID", "STATE", "UTIME", "STIME", "CMD")
		for _, pi := range m.PS() {
			fmt.Printf("%*s %5d %5d %5d %-9s %10v %10v  %s\n",
				len(fmt.Sprintf("[%v] %s:", ts(tk), cmd[1])), "",
				pi.PID, pi.PPID, pi.UID, pi.State, pi.UTime, pi.STime, pi.Cmd)
		}
	case "kill":
		if err := need(2); err != nil {
			return err
		}
		pid, err := s.pid(cmd[2])
		if err != nil {
			return err
		}
		sig := kernel.SIGTERM
		if len(cmd) > 3 {
			n, err := strconv.Atoi(cmd[3])
			if err != nil {
				return err
			}
			sig = kernel.Signal(n)
		}
		if e := s.c.Machine(cmd[1]).Kill(kernel.Creds{}, pid, sig); e != 0 {
			return e
		}
		tk.Yield()
	case "dumpproc":
		if err := need(2); err != nil {
			return err
		}
		pid, err := s.pid(cmd[2])
		if err != nil {
			return err
		}
		return s.runAndWait(tk, cmd[1], "/bin/dumpproc", "-p", fmt.Sprint(pid))
	case "restart":
		if err := need(3); err != nil {
			return err
		}
		pid, err := s.pid(cmd[2])
		if err != nil {
			return err
		}
		return s.runAndWait(tk, cmd[1], "/bin/restart", "-p", fmt.Sprint(pid), "-h", cmd[3])
	case "migrate":
		if err := need(4); err != nil {
			return err
		}
		pid, err := s.pid(cmd[2])
		if err != nil {
			return err
		}
		return s.runAndWait(tk, cmd[1], "/bin/migrate",
			"-p", fmt.Sprint(pid), "-f", cmd[3], "-t", cmd[4])
	case "cat":
		if err := need(2); err != nil {
			return err
		}
		data, err := s.c.Machine(cmd[1]).NS().ReadFile(cmd[2])
		if err != nil {
			return err
		}
		fmt.Printf("[%v] %s:%s:\n%s", ts(tk), cmd[1], cmd[2], data)
		if len(data) > 0 && data[len(data)-1] != '\n' {
			fmt.Println()
		}
	case "tty":
		if err := need(1); err != nil {
			return err
		}
		fmt.Printf("[%v] %s console:\n%s", ts(tk), cmd[1], s.c.Console(cmd[1]).Output())
	case "trace":
		if err := need(2); err != nil {
			return err
		}
		m := s.c.Machine(cmd[1])
		if m == nil {
			return fmt.Errorf("no host %q", cmd[1])
		}
		m.SetTracing(cmd[2] == "on")
	case "tracelog":
		if err := need(1); err != nil {
			return err
		}
		m := s.c.Machine(cmd[1])
		if m == nil {
			return fmt.Errorf("no host %q", cmd[1])
		}
		fmt.Printf("[%v] %s kernel trace:\n", ts(tk), cmd[1])
		for _, e := range m.TraceLog() {
			fmt.Println("  " + e.String())
		}
		if n := m.TraceDropped(); n > 0 {
			fmt.Printf("  (%d older entries dropped past the %d-entry ring)\n",
				n, kernel.MaxTraceEntries)
		}
	case "controller":
		if err := need(1); err != nil {
			return err
		}
		return s.controller(tk, cmd[1:])
	case "metrics":
		if len(cmd) > 2 && cmd[1] == "-format" {
			if cmd[2] != "prom" {
				return fmt.Errorf("unknown metrics format %q (only prom)", cmd[2])
			}
			return obs.WriteProm(os.Stdout, s.c.Obs)
		}
		filter := ""
		if len(cmd) > 1 {
			filter = cmd[1]
		}
		fmt.Printf("[%v] metrics:\n", ts(tk))
		for _, r := range s.c.Obs.Snapshot() {
			if filter != "" && r.Host != filter {
				continue
			}
			if r.Detail != "" {
				fmt.Printf("  %-10s %-26s %s\n", r.Host, r.Name, r.Detail)
			} else {
				fmt.Printf("  %-10s %-26s %d\n", r.Host, r.Name, r.Value)
			}
		}
		if filter == "" {
			for _, r := range s.c.Obs.Totals() {
				if r.Detail != "" {
					fmt.Printf("  %-10s %-26s %s\n", "(total)", r.Name, r.Detail)
				} else {
					fmt.Printf("  %-10s %-26s %d\n", "(total)", r.Name, r.Value)
				}
			}
		}
	case "status":
		// The loss/occupancy dashboard: where observability itself is
		// degrading (trace rings overflowing, migd tables evicting) and
		// which hosts currently hold frozen processes.
		gauges := []string{
			"kernel.trace_dropped", "kernel.frozen",
			"migd.txn_table", "migd.txn_evicted",
			"load.dropped",
		}
		byHost := map[string]map[string]int64{}
		for _, r := range s.c.Obs.Snapshot() {
			for _, g := range gauges {
				if r.Name == g {
					if byHost[r.Host] == nil {
						byHost[r.Host] = map[string]int64{}
					}
					byHost[r.Host][g] = r.Value
				}
			}
		}
		fmt.Printf("[%v] status:\n", ts(tk))
		fmt.Printf("  %-10s %12s %8s %10s %12s %10s\n",
			"host", "trace_drops", "frozen", "txn_table", "txn_evicted", "load_drops")
		for _, hn := range s.c.Obs.Hosts() {
			g := byHost[hn]
			if g == nil {
				continue
			}
			fmt.Printf("  %-10s %12d %8d %10d %12d %10d\n",
				hn, g["kernel.trace_dropped"], g["kernel.frozen"],
				g["migd.txn_table"], g["migd.txn_evicted"], g["load.dropped"])
		}
	case "spans":
		fmt.Printf("[%v] spans:\n", ts(tk))
		for _, root := range s.c.Obs.Tracer.Roots() {
			for _, sp := range s.c.Obs.Tracer.Trace(root.Txn) {
				fmt.Println("  " + sp.String())
			}
		}
	case "timeline":
		if err := need(1); err != nil {
			return err
		}
		f, err := os.Create(cmd[1])
		if err != nil {
			return err
		}
		werr := obs.WriteTimelineObs(f, s.c.Obs, s.c.Obs.Tracer, s.c.Names())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("[%v] timeline written to %s\n", ts(tk), cmd[1])
	case "time":
		fmt.Printf("virtual time: %v\n", ts(tk))
	default:
		return fmt.Errorf("unknown command (see -help)")
	}
	return nil
}
