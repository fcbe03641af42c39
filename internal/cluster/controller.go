package cluster

import (
	"fmt"

	"procmig/internal/apps"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

// Controller wiring: the cluster implements controller.Actuator so the
// declarative desired-state layer can act on the booted machines — spawns
// through the kernel, kills by signal, migrations through the migd
// transaction machinery, protection through the guardians — while all of
// its *reads* go through the heartbeat view and the censuses hosts answer
// over the network, like every other policy daemon.

// ctlActuator adapts a Cluster to controller.Actuator. Reads resolve the
// HA node lazily so a controller host that rejoins after a revival (which
// replaces the node) keeps working.
type ctlActuator struct {
	c    *Cluster
	host string // the controller's own host; reads and migrations run here
}

func (a *ctlActuator) Hosts() []string { return a.c.Names() }

func (a *ctlActuator) View(dst []ha.Member) []ha.Member {
	if node := a.c.ha[a.host]; node != nil {
		return node.ViewInto(dst)
	}
	return dst[:0]
}

func (a *ctlActuator) Census(t *sim.Task, host string, dst []ha.ProcStat) ([]ha.ProcStat, error) {
	if node := a.c.ha[a.host]; node != nil {
		return node.Census(t, host, dst)
	}
	return dst[:0], fmt.Errorf("cluster: no control-plane node on %q", a.host)
}

func (a *ctlActuator) Spawn(t *sim.Task, host, path string) (int, error) {
	p, err := a.c.Spawn(host, nil, kernel.Creds{}, path)
	if err != nil {
		return 0, err
	}
	return p.PID, nil
}

func (a *ctlActuator) Kill(t *sim.Task, host string, pid int) error {
	m := a.c.machines[host]
	if m == nil {
		return fmt.Errorf("cluster: no machine %q", host)
	}
	if e := m.Kill(kernel.Creds{}, pid, kernel.SIGKILL); e != 0 {
		return e
	}
	return nil
}

func (a *ctlActuator) Migrate(t *sim.Task, src string, pid int, dst string) (int, error) {
	if a.c.migClassic {
		return apps.MigrateRemote(t, a.c.hosts[a.host], src, pid, dst)
	}
	return apps.StreamMigrateRemote(t, a.c.hosts[a.host], src, pid, dst, a.c.migWire)
}

func (a *ctlActuator) Protect(t *sim.Task, host string, pid int, buddy string) error {
	node := a.c.ha[host]
	if node == nil {
		return fmt.Errorf("cluster: no control-plane node on %q", host)
	}
	node.Guard.Protect(pid, buddy)
	return nil
}

func (a *ctlActuator) Recoveries(buddy string) []ha.Recovery {
	node := a.c.ha[buddy]
	if node == nil {
		return nil
	}
	return node.Guard.Recoveries
}

// StartController boots the declarative desired-state controller on the
// named host. It requires the HA control plane (its observed state is the
// heartbeat view). The controller reconciles forever; call StopController
// (like StopHA) before expecting the engine to quiesce.
func (c *Cluster) StartController(host string, cfg controller.Config) (*controller.Controller, error) {
	if c.ha == nil {
		return nil, fmt.Errorf("cluster: start HA before the controller")
	}
	if c.ctl != nil {
		return nil, fmt.Errorf("cluster: controller already started")
	}
	if c.machines[host] == nil {
		return nil, fmt.Errorf("cluster: no machine %q", host)
	}
	ctl := controller.New(host, &ctlActuator{c: c, host: host}, cfg, c.Obs)
	ctl.Start(c.Eng)
	c.ctl = ctl
	return ctl, nil
}

// Controller returns the running controller (nil before StartController).
func (c *Cluster) Controller() *controller.Controller { return c.ctl }

// StopController ends the reconcile loop at its next tick.
func (c *Cluster) StopController() {
	if c.ctl != nil {
		c.ctl.Stop()
	}
}

// DrainHost starts a rolling drain of the named host: every
// controller-owned replica is migrated off in rate-limited waves and the
// host stays cordoned for maintenance. Progress is read via
// Controller().DrainStatus.
func (c *Cluster) DrainHost(host string) error {
	if c.ctl == nil {
		return fmt.Errorf("cluster: no controller running")
	}
	return c.ctl.Drain(host)
}
