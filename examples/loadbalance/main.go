// Loadbalance: the paper's §8 load-balancing applications, wired to the
// availability control plane (internal/ha). Every machine runs an hbd
// beaconing liveness and run-queue load and answering census queries; the
// balancer and the night scheduler read that disseminated view and ask
// hosts for their censuses — never a peer's kernel — and move jobs by
// driving the source machine's migration daemon remotely.
//
// First the balancer: four CPU-bound jobs pile up on one workstation of a
// three-machine network, and the balancer migrates them until the load is
// even, shortening the batch's makespan. Then the day/night policy: CPU
// hogs confined to one machine by day spread across the network at night.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"

	"procmig/internal/apps"
	"procmig/internal/cluster"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

func main() {
	balancerDemo()
	nightDemo()
}

func boot() *cluster.Cluster {
	c, err := cluster.NewSimple("home", "w1", "w2")
	if err != nil {
		log.Fatal(err)
	}
	if err := c.InstallVM("/bin/job", cluster.FiniteHogSrc); err != nil {
		log.Fatal(err)
	}
	if err := c.InstallVM("/bin/hog", cluster.HogSrc); err != nil {
		log.Fatal(err)
	}
	// The control plane: hbd + guardd on every machine, 1s beacons.
	if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
		log.Fatal(err)
	}
	return c
}

func balancerDemo() {
	fmt.Println("=== load balancer: 4 CPU jobs dropped on one machine of three ===")
	c := boot()

	c.Eng.Go("driver", func(tk *sim.Task) {
		for i := 0; i < 4; i++ {
			if _, err := c.Spawn("home", nil, cluster.DefaultUser, "/bin/job"); err != nil {
				log.Fatal(err)
			}
		}
		// The balancer runs on w1 and knows the cluster only through w1's
		// heartbeat view and the censuses w1 asks for.
		b := &apps.Balancer{
			Host:   c.NetHost("w1"),
			View:   c.HA("w1"),
			Period: 5 * sim.Second,
			MinAge: 2 * sim.Second,
		}
		b.Run(tk, func() bool {
			for _, name := range c.Names() {
				for _, p := range c.Machine(name).Procs() {
					if p.State == kernel.ProcRunning {
						return false
					}
				}
			}
			return true
		})
		fmt.Printf("all jobs done at %v after %d migrations (%d failed attempts):\n",
			sim.Duration(tk.Now()), len(b.Events), len(b.Failed))
		for _, ev := range b.Events {
			fmt.Printf("  [%v] pid %d: %s → %s (new pid %d)\n",
				sim.Duration(ev.At), ev.PID, ev.From, ev.To, ev.New)
		}
		c.StopHA()
	})
	if err := c.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("(an unbalanced run of the same batch takes ~43s; see migbench -ablations)")
}

func nightDemo() {
	fmt.Println("\n=== night scheduler: CPU hogs live on 'home' by day, spread at night ===")
	c := boot()

	c.Eng.Go("driver", func(tk *sim.Task) {
		ns := &apps.NightScheduler{
			Host:     c.NetHost("home"),
			View:     c.HA("home"),
			Home:     "home",
			Machines: []string{"home", "w1", "w2"},
		}
		for i := 0; i < 3; i++ {
			p, err := c.Spawn("home", nil, cluster.DefaultUser, "/bin/hog")
			if err != nil {
				log.Fatal(err)
			}
			ns.Add("home", p.PID)
		}
		tk.Sleep(10 * sim.Second)
		fmt.Printf("[%v] daytime placement: %v\n", sim.Duration(tk.Now()), ns.Placement(tk))

		ns.Nightfall(tk)
		tk.Sleep(5 * sim.Second)
		fmt.Printf("[%v] nightfall:          %v\n", sim.Duration(tk.Now()), ns.Placement(tk))

		ns.Daybreak(tk)
		tk.Sleep(5 * sim.Second)
		fmt.Printf("[%v] daybreak:           %v\n", sim.Duration(tk.Now()), ns.Placement(tk))

		// The hogs run forever; stop the simulation cleanly.
		c.StopHA()
		for _, name := range c.Names() {
			m := c.Machine(name)
			for _, pi := range m.PS() {
				m.Kill(kernel.Creds{}, pi.PID, kernel.SIGKILL)
			}
		}
	})
	if err := c.Run(); err != nil {
		log.Fatal(err)
	}
}
