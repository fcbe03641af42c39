package cluster_test

import (
	"strings"
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/core"
	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
	"procmig/internal/vm/asm"
)

func boot(t *testing.T, names ...string) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewSimple(names...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBootLayout(t *testing.T) {
	c := boot(t, "brick", "schooner")
	for _, name := range c.Names() {
		ns := c.Machine(name).NS()
		for _, d := range []string{"/dev", "/bin", "/etc", "/usr/tmp", "/home", "/n", "/u"} {
			attr, err := ns.Stat(d)
			if err != nil || attr.Type != 2 { // vfs.TypeDir
				t.Fatalf("%s: %s attr=%+v err=%v", name, d, attr, err)
			}
		}
		for _, dev := range []string{"/dev/null", "/dev/tty", "/dev/console"} {
			if _, err := ns.Stat(dev); err != nil {
				t.Fatalf("%s: %s: %v", name, dev, err)
			}
		}
		for _, prog := range []string{
			"dumpproc", "restart", "migrate", "undump", "rsh", "fmigrate",
			"ckpt", "ckptrestore", "ps", "kill",
		} {
			if _, err := ns.Stat("/bin/" + prog); err != nil {
				t.Fatalf("%s: /bin/%s missing: %v", name, prog, err)
			}
		}
	}
}

func TestCrossMountsVisibleBothWays(t *testing.T) {
	c := boot(t, "brick", "schooner")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Machine("brick").NS().WriteFile("/etc/onbrick", []byte("B"), 0o644, 0, 0))
	must(c.Machine("schooner").NS().WriteFile("/etc/onschooner", []byte("S"), 0o644, 0, 0))

	data, err := c.Machine("schooner").NS().ReadFile("/n/brick/etc/onbrick")
	if err != nil || string(data) != "B" {
		t.Fatalf("schooner reading brick: %q %v", data, err)
	}
	data, err = c.Machine("brick").NS().ReadFile("/n/schooner/etc/onschooner")
	if err != nil || string(data) != "S" {
		t.Fatalf("brick reading schooner: %q %v", data, err)
	}
	// Writes cross too.
	must(c.Machine("brick").NS().WriteFile("/n/schooner/usr/tmp/x", []byte("remote write"), 0o644, 0, 0))
	data, err = c.Machine("schooner").NS().ReadFile("/usr/tmp/x")
	if err != nil || string(data) != "remote write" {
		t.Fatalf("remote write: %q %v", data, err)
	}
}

func TestSelfMountIsSymlinkToRoot(t *testing.T) {
	c := boot(t, "brick")
	ns := c.Machine("brick").NS()
	if err := ns.WriteFile("/etc/f", []byte("x"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	data, err := ns.ReadFile("/n/brick/etc/f")
	if err != nil || string(data) != "x" {
		t.Fatalf("self path: %q %v", data, err)
	}
}

func TestPidsStaggeredAcrossMachines(t *testing.T) {
	c := boot(t, "a", "b", "c")
	var pids []int
	c.Eng.Go("driver", func(tk *sim.Task) {
		for _, name := range c.Names() {
			p, err := c.Spawn(name, nil, cluster.DefaultUser, "/bin/ps")
			if err != nil {
				t.Error(err)
				return
			}
			pids = append(pids, p.PID)
			p.AwaitExit(tk)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, pid := range pids {
		if seen[pid] {
			t.Fatalf("pid %d reused across machines: %v", pid, pids)
		}
		seen[pid] = true
	}
}

func TestPSCommandOutput(t *testing.T) {
	c := boot(t, "brick")
	if err := c.InstallVM("/bin/hog", cluster.HogSrc); err != nil {
		t.Fatal(err)
	}
	term := c.Console("brick")
	c.Eng.Go("driver", func(tk *sim.Task) {
		hog, _ := c.Spawn("brick", term, cluster.DefaultUser, "/bin/hog")
		tk.Sleep(sim.Second)
		ps, _ := c.Spawn("brick", term, cluster.DefaultUser, "/bin/ps")
		ps.AwaitExit(tk)
		c.Machine("brick").Kill(kernel.Creds{}, hog.PID, kernel.SIGKILL)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	out := term.Output()
	if !strings.Contains(out, "/bin/hog") || !strings.Contains(out, "COMMAND") {
		t.Fatalf("ps output = %q", out)
	}
}

func TestKillCommand(t *testing.T) {
	c := boot(t, "brick")
	if err := c.InstallVM("/bin/hog", cluster.HogSrc); err != nil {
		t.Fatal(err)
	}
	var hog *kernel.Proc
	var killStatus int
	c.Eng.Go("driver", func(tk *sim.Task) {
		hog, _ = c.Spawn("brick", nil, cluster.DefaultUser, "/bin/hog")
		tk.Sleep(sim.Second)
		k, _ := c.Spawn("brick", nil, cluster.DefaultUser, "/bin/kill",
			"-9", formatInt(hog.PID))
		killStatus = k.AwaitExit(tk)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if killStatus != 0 {
		t.Fatalf("kill exit = %d", killStatus)
	}
	if hog.KilledBy != kernel.SIGKILL {
		t.Fatalf("hog killed by %v", hog.KilledBy)
	}
}

func formatInt(v int) string {
	return string([]byte(intToASCII(v)))
}

func intToASCII(v int) []byte {
	if v == 0 {
		return []byte{'0'}
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return b
}

func TestSun3RunsFasterThanSun2(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		Hosts: []cluster.HostSpec{
			{Name: "sun2", ISA: vm.ISA1},
			{Name: "sun3", ISA: vm.ISA2},
		},
		Config: kernel.Config{TrackNames: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM("/bin/job", cluster.FiniteHogSrc); err != nil {
		t.Fatal(err)
	}
	times := map[string]sim.Duration{}
	c.Eng.Go("driver", func(tk *sim.Task) {
		for _, host := range []string{"sun2", "sun3"} {
			start := tk.Now()
			p, _ := c.Spawn(host, nil, cluster.DefaultUser, "/bin/job")
			p.AwaitExit(tk)
			times[host] = sim.Duration(tk.Now() - start)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if times["sun3"]*3 > times["sun2"]*2 {
		t.Fatalf("sun3 (%v) not meaningfully faster than sun2 (%v)", times["sun3"], times["sun2"])
	}
}

func TestSkipMigrationOptionGivesStockKernel(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		Hosts:         []cluster.HostSpec{{Name: "brick", ISA: vm.ISA1}},
		Config:        kernel.Config{TrackNames: true},
		SkipMigration: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM("/bin/counter", cluster.TestProgramSrc); err != nil {
		t.Fatal(err)
	}
	var victim *kernel.Proc
	c.Eng.Go("driver", func(tk *sim.Task) {
		victim, _ = c.Spawn("brick", nil, cluster.DefaultUser, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		c.Machine("brick").Kill(cluster.DefaultUser, victim.PID, kernel.SIGDUMP)
		victim.AwaitExit(tk)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// The process dies but no dump files appear: SIGDUMP on the stock
	// kernel is just a fatal signal.
	if victim.KilledBy != kernel.SIGDUMP {
		t.Fatalf("killed by %v", victim.KilledBy)
	}
	if _, err := c.Machine("brick").NS().ReadFile("/usr/tmp/a.out00001"); errno.Of(err) != errno.ENOENT {
		t.Fatalf("stock kernel produced dump files: err = %v", err)
	}
}

func TestInstallVMRejectsBadAssembly(t *testing.T) {
	c := boot(t, "brick")
	if err := c.InstallVM("/bin/bad", "start: frobnicate r9"); err == nil {
		t.Fatal("expected assembly error")
	}
}

func TestTestProgramAssembles(t *testing.T) {
	for name, src := range map[string]string{
		"TestProgramSrc": cluster.TestProgramSrc,
		"HogSrc":         cluster.HogSrc,
		"FiniteHogSrc":   cluster.FiniteHogSrc,
		"TmpfileSrc":     cluster.TmpfileSrc,
		"WaiterSrc":      cluster.WaiterSrc,
	} {
		if _, err := asm.Assemble(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestNewTerminalDevice(t *testing.T) {
	c := boot(t, "brick")
	term, path, err := c.NewTerminal("brick", "ttyz9")
	if err != nil {
		t.Fatal(err)
	}
	if path != "/dev/ttyz9" {
		t.Fatalf("path = %q", path)
	}
	var got []byte
	c.Eng.Go("driver", func(tk *sim.Task) {
		if err := c.InstallHosted("rdr", func(sys *kernel.Sys, args []string) int {
			fd, e := sys.Open("/dev/ttyz9", kernel.O_RDWR)
			if e != 0 {
				return 1
			}
			got, _ = sys.Read(fd, 64)
			return 0
		}); err != nil {
			t.Error(err)
			return
		}
		p, _ := c.Spawn("brick", nil, cluster.DefaultUser, "/bin/rdr")
		tk.Sleep(sim.Second)
		term.Type("via device node\n")
		p.AwaitExit(tk)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "via device node\n" {
		t.Fatalf("got = %q", got)
	}
}

// TestCrashKeepsStoreBudget: a crash empties a host's page store but keeps
// the budget the host was configured with, so a disabled store stays
// disabled and a sized one keeps its size.
func TestCrashKeepsStoreBudget(t *testing.T) {
	c := boot(t, "alpha")
	m := c.Machine("alpha")
	c.ConfigurePageStores(0)
	c.NetHost("alpha").Crash()
	if ps := core.MachineStore(m); ps != nil {
		t.Fatalf("a disabled store came back after a crash with budget %d", ps.Budget())
	}
	c.NetHost("alpha").Revive()

	const budget = 64 << 10
	c.ConfigurePageStores(budget)
	core.MachineStore(m).Insert(1, make([]byte, vm.PageSize))
	c.NetHost("alpha").Crash()
	ps := core.MachineStore(m)
	if ps == nil {
		t.Fatal("a crash disabled the store")
	}
	if ps.Budget() != budget || ps.Len() != 0 {
		t.Fatalf("store after a crash: budget %d with %d pages, want budget %d and empty", ps.Budget(), ps.Len(), budget)
	}
}
