// Package cluster assembles the simulated environment of the paper's §3:
// Sun-2/Sun-3 workstations on a 10 Mbit Ethernet, every machine's root
// mounted on every other machine as /n/<host> via NFS (the 8th-edition
// convention), rsh available everywhere, and the migration commands
// installed in /bin.
package cluster

import (
	"fmt"

	"procmig/internal/aout"
	"procmig/internal/apps"
	"procmig/internal/controller"
	"procmig/internal/core"
	"procmig/internal/ha"
	"procmig/internal/inet"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/nfs"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/tty"
	"procmig/internal/vfs"
	"procmig/internal/vm"
	"procmig/internal/vm/asm"
)

// HostSpec describes one workstation.
type HostSpec struct {
	Name string
	ISA  vm.Level // vm.ISA1 = Sun-2, vm.ISA2 = Sun-3
}

// Options configures a cluster.
type Options struct {
	Hosts  []HostSpec
	Config kernel.Config

	// Network parameters; zero values take era defaults.
	NetLatency  sim.Duration
	NetByteTime sim.Duration

	// SkipMigration leaves the kernel unmodified (no SIGDUMP/rest_proc
	// hooks) — the true baseline system.
	SkipMigration bool
}

// Cluster is a booted simulated network of workstations.
type Cluster struct {
	Eng *sim.Engine
	Net *netsim.Network
	// Obs is the cluster-wide metrics registry and span tracer, shared by
	// every machine and the network so one migration's trace stitches
	// across hosts.
	Obs *obs.Registry

	machines   map[string]*kernel.Machine
	hosts      map[string]*netsim.Host
	consoles   map[string]*tty.Terminal
	order      []string
	ha         map[string]*ha.Node
	haCfg      ha.Config // StartHA's config, reused when a revived host rejoins
	ctl        *controller.Controller
	migWire    core.WireMode // wire mode controller-driven migrations use
	migClassic bool          // controller migrations use the classic stop-and-copy path
}

// SetMigrationWire selects the wire mode the controller's streaming
// migrations (drains, constraint moves) encode pages with. The default is
// the stream default (elide + LZ); experiments use WireRaw as the
// no-dedup baseline.
func (c *Cluster) SetMigrationWire(w core.WireMode) { c.migWire = w }

// SetMigrationClassic switches controller-driven migrations to the
// paper's original stop-and-copy path (full dump to the file server,
// then restart) instead of the streaming engine. The SLI experiments
// use it to price the freeze a client actually sees under each design.
func (c *Cluster) SetMigrationClassic(on bool) { c.migClassic = on }

// ConfigurePageStores sets every machine's content-addressed page store
// to the given byte budget; 0 or negative disables the stores (the
// "session dedup only" configuration A14 baselines against).
func (c *Cluster) ConfigurePageStores(budget int64) {
	for _, name := range c.order {
		core.ConfigureMachineStore(c.machines[name], budget)
	}
}

// DefaultUser is the ordinary user account used by tests and examples.
var DefaultUser = kernel.Creds{UID: 100, GID: 10, EUID: 100, EGID: 10}

// New boots a cluster.
func New(opts Options) (*Cluster, error) {
	eng := sim.NewEngine()
	lat := opts.NetLatency
	if lat == 0 {
		lat = 1500 * sim.Microsecond
	}
	bt := opts.NetByteTime
	if bt == 0 {
		bt = sim.Microsecond
	}
	c := &Cluster{
		Eng:      eng,
		Net:      netsim.New(eng, lat, bt),
		Obs:      obs.NewRegistry(),
		machines: map[string]*kernel.Machine{},
		hosts:    map[string]*netsim.Host{},
		consoles: map[string]*tty.Terminal{},
	}
	c.Net.SetObs(c.Obs)

	// Pass 1: machines, local filesystems, devices, exports.
	for i, hs := range opts.Hosts {
		m := kernel.NewMachine(eng, hs.Name, hs.ISA, opts.Config)
		m.SetObs(c.Obs)
		// Machines have been up for different lengths of time: stagger
		// their pid counters so pids are distinct across the cluster.
		m.SetNextPID(1 + i*1000)
		if !opts.SkipMigration {
			core.Install(m)
		}
		nh := c.Net.AddHost(hs.Name)
		c.machines[hs.Name] = m
		c.hosts[hs.Name] = nh
		c.order = append(c.order, hs.Name)

		ns := m.NS()
		for _, d := range []string{"/dev", "/bin", "/etc", "/n", "/u"} {
			if err := ns.MkdirAll(d, 0o755, 0, 0); err != nil {
				return nil, err
			}
		}
		for _, d := range []string{"/usr/tmp", "/home"} {
			if err := ns.MkdirAll(d, 0o777, 0, 0); err != nil {
				return nil, err
			}
		}

		console := tty.New(eng, hs.Name+":console")
		c.consoles[hs.Name] = console
		consoleDev := m.RegisterDevice(kernel.NewTTYDevice(console))
		nullDev := m.RegisterDevice(kernel.NewNullDevice())
		for _, nd := range []struct {
			path string
			dev  vfs.DevID
		}{
			{"/dev/console", consoleDev},
			{"/dev/null", nullDev},
			{"/dev/tty", kernel.DevCurrentTTY},
		} {
			dir, base, err := ns.ResolveParent(nd.path)
			if err != nil {
				return nil, err
			}
			if _, err := dir.FS.Mknod(dir.Node, base, nd.dev, 0o666, 0, 0); err != nil {
				return nil, err
			}
		}

		// Export the local disk.
		costs := m.Costs
		if err := nfs.Serve(nh, m.LocalFS(), m.CPU(), nfs.ServerCosts{
			OpCPU:       800 * sim.Microsecond,
			DiskLatency: costs.DiskLatency,
			DiskPerByte: costs.DiskPerByte,
		}); err != nil {
			return nil, err
		}
	}

	// Pass 2: cross-mounts, daemons and programs.
	for _, name := range c.order {
		m := c.machines[name]
		nh := c.hosts[name]
		ns := m.NS()
		for _, other := range c.order {
			if other == name {
				// A machine's own root appears as /n/<self> too (as a
				// symlink to /), so names rewritten by dumpproc resolve
				// on the machine itself as well as remotely.
				if err := ns.Symlink("/n/"+name, "/", 0, 0); err != nil {
					return nil, err
				}
				continue
			}
			if err := ns.MkdirAll("/n/"+other, 0o755, 0, 0); err != nil {
				return nil, err
			}
			if err := ns.Mount("/n/"+other, nfs.NewClient(nh, other)); err != nil {
				return nil, err
			}
		}
		if err := apps.StartRshd(m, nh); err != nil {
			return nil, err
		}
		stack, err := inet.New(nh)
		if err != nil {
			return nil, err
		}
		m.SetNetStack(stack)
		if err := apps.StartMigd(m, nh); err != nil {
			return nil, err
		}

		progs := core.Programs()
		for pname, fn := range core.ToolPrograms() {
			progs[pname] = fn
		}
		for pname, fn := range apps.CheckpointPrograms() {
			progs[pname] = fn
		}
		for pname, fn := range apps.ShellPrograms() {
			progs[pname] = fn
		}
		progs["rsh"] = apps.NewRsh(nh)
		progs["fmigrate"] = apps.NewFastMigrate(nh)
		progs["rmigrate"] = apps.NewRMigrate(nh)

		// A host crash (scripted or explicit) takes the machine's running
		// processes with it — the fault-injection experiments depend on a
		// crashed destination really losing its half-restored copy. The
		// page store is RAM too: it dies with the host, so a revived host
		// re-advertises an empty summary rather than a stale one.
		machine := m
		nh.SetCrashHook(func() {
			for _, pi := range machine.PS() {
				machine.Kill(kernel.Creds{}, pi.PID, kernel.SIGKILL)
			}
			core.DropMachineStore(machine)
		})
		for pname, fn := range progs {
			m.RegisterProgram(pname, fn)
			if err := ns.WriteFile("/bin/"+pname, aout.EncodeHosted(pname), 0o755, 0, 0); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// NewSimple boots a cluster of Sun-2 workstations with pathname tracking
// and the migration mechanism installed.
func NewSimple(names ...string) (*Cluster, error) {
	var hosts []HostSpec
	for _, n := range names {
		hosts = append(hosts, HostSpec{Name: n, ISA: vm.ISA1})
	}
	return New(Options{Hosts: hosts, Config: kernel.Config{TrackNames: true}})
}

// Machine returns a booted machine by name.
func (c *Cluster) Machine(name string) *kernel.Machine { return c.machines[name] }

// NetHost returns a machine's network attachment.
func (c *Cluster) NetHost(name string) *netsim.Host { return c.hosts[name] }

// Console returns a machine's console terminal.
func (c *Cluster) Console(name string) *tty.Terminal { return c.consoles[name] }

// Names lists the machines in boot order.
func (c *Cluster) Names() []string { return append([]string(nil), c.order...) }

// InstallVM assembles src and installs it at path on every machine.
func (c *Cluster) InstallVM(path, src string) error {
	exe, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	raw := exe.Encode()
	for _, name := range c.order {
		if err := c.machines[name].NS().WriteFile(path, raw, 0o755, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// InstallHosted registers fn under name on every machine and writes the
// /bin stub.
func (c *Cluster) InstallHosted(name string, fn kernel.HostedProg) error {
	for _, mname := range c.order {
		m := c.machines[mname]
		m.RegisterProgram(name, fn)
		if err := m.NS().WriteFile("/bin/"+name, aout.EncodeHosted(name), 0o755, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// NewTerminal creates an extra terminal (a window or a serial line) on a
// machine and returns it with its device path.
func (c *Cluster) NewTerminal(host, name string) (*tty.Terminal, string, error) {
	m := c.machines[host]
	if m == nil {
		return nil, "", fmt.Errorf("cluster: no machine %q", host)
	}
	term := tty.New(c.Eng, host+":"+name)
	dev := m.RegisterDevice(kernel.NewTTYDevice(term))
	path := "/dev/" + name
	ns := m.NS()
	dir, base, err := ns.ResolveParent(path)
	if err != nil {
		return nil, "", err
	}
	if _, err := dir.FS.Mknod(dir.Node, base, dev, 0o666, 0, 0); err != nil {
		return nil, "", err
	}
	return term, path, nil
}

// Spawn runs a program on a machine as a user session: stdio on the given
// terminal, cwd in /home.
func (c *Cluster) Spawn(host string, term *tty.Terminal, creds kernel.Creds, path string, args ...string) (*kernel.Proc, error) {
	m := c.machines[host]
	if m == nil {
		return nil, fmt.Errorf("cluster: no machine %q", host)
	}
	if term == nil {
		term = c.consoles[host]
	}
	stdio := m.NewTerminalFile(kernel.NewTTYDevice(term))
	return m.Spawn(kernel.SpawnSpec{
		Path:       path,
		Args:       append([]string{path}, args...),
		Creds:      creds,
		CWD:        "/home",
		TTY:        term,
		InheritFDs: []*kernel.File{stdio, stdio, stdio},
	})
}

// StartHA starts the availability control plane (package ha) on every
// machine: heartbeat membership plus the guardian service, with each
// guardian's arbitration probe wired to the migd transaction port. The
// daemons beacon forever, so a cluster with HA running must call StopHA
// before Run can quiesce (RunUntil works either way).
func (c *Cluster) StartHA(cfg ha.Config) error {
	if c.ha != nil {
		return fmt.Errorf("cluster: HA already started")
	}
	c.ha = map[string]*ha.Node{}
	c.haCfg = cfg
	for _, name := range c.order {
		if err := c.startHANode(name, cfg.Incarnation); err != nil {
			return err
		}
		// A revived host rejoins the control plane as a fresh boot with a
		// bumped incarnation; the hook makes Host.RestartAfter-driven
		// revivals rejoin too, not just explicit ReviveHost calls.
		name := name
		c.hosts[name].SetReviveHook(func() { c.rejoinHA(name) })
	}
	return nil
}

// startHANode boots one host's control-plane node with the given
// incarnation and wires its guardian arbitration and peer list.
func (c *Cluster) startHANode(name string, inc uint32) error {
	nh := c.hosts[name]
	cfg := c.haCfg
	cfg.Incarnation = inc
	node, err := ha.Start(c.machines[name], nh, cfg)
	if err != nil {
		return err
	}
	host := nh
	node.Guard.Arbitrate = func(t *sim.Task, peer string) bool {
		return apps.ProbeAlive(t, host, peer)
	}
	var peers []string
	for _, other := range c.order {
		if other != name {
			peers = append(peers, other)
		}
	}
	node.SetPeers(peers)
	c.ha[name] = node
	return nil
}

// rejoinHA replaces a host's control-plane node after revival: the old
// node's daemons stop and its ports are released (its membership table and
// guardian state die with it, as a reboot would lose them), and a fresh
// node binds the same ports with the incarnation bumped so the cluster
// refutes stale suspicion and re-admits the host exactly once.
func (c *Cluster) rejoinHA(name string) {
	old := c.ha[name]
	inc := uint32(0)
	if old != nil {
		inc = old.Incarnation() + 1
		old.Shutdown()
	}
	// Shutdown released the ports, so the only Listen failure mode is a
	// name that was never booted — excluded by the callers.
	_ = c.startHANode(name, inc)
}

// HA returns a machine's control-plane node (nil before StartHA).
func (c *Cluster) HA(name string) *ha.Node { return c.ha[name] }

// StopHA shuts every control-plane daemon down at its next tick so the
// engine can quiesce.
func (c *Cluster) StopHA() {
	for _, node := range c.ha {
		node.Stop()
	}
}

// Crash takes a machine down mid-run: the host drops off the network and
// every process on it is killed, like a power failure. (SetDown(true) on
// the NetHost alone models a partition — the machine keeps running.)
func (c *Cluster) Crash(name string) {
	if h, ok := c.hosts[name]; ok {
		h.Crash()
	}
}

// ReviveHost brings a crashed machine back as a fresh boot: reachable
// again with cleared network state (no pending scripted crashes, zeroed
// port counters), its processes already gone from the crash, and — when
// HA is running — a new control-plane node on the same ports with a
// bumped incarnation, so the cluster re-admits it exactly once.
func (c *Cluster) ReviveHost(name string) error {
	h, ok := c.hosts[name]
	if !ok {
		return fmt.Errorf("cluster: no machine %q", name)
	}
	if !h.Down() {
		return fmt.Errorf("cluster: %s is not down", name)
	}
	h.Revive() // the revive hook set by StartHA rejoins the control plane
	return nil
}

// Run drives the simulation to quiescence.
func (c *Cluster) Run() error { return c.Eng.Run() }

// RunUntil drives the simulation up to a virtual-time limit.
func (c *Cluster) RunUntil(t sim.Time) error { return c.Eng.RunUntil(t) }
