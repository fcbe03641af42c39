package experiments

import (
	"fmt"

	"procmig/internal/kernel"
	"procmig/internal/nfs"
	"procmig/internal/scenario"
	"procmig/internal/sim"
)

// --- A6: stop-and-copy vs streaming vs pre-copy -------------------------------

// A6Point is one image-size/working-set configuration measured under the
// three transfer strategies:
//
//   - stop: the classic path — dump files on the source, restart reading
//     them over NFS (fmigrate without -s).
//   - stream: streaming stop-and-copy — freeze first, ship the whole image
//     migd-to-migd in one pass (fmigrate -s -r 0).
//   - pre: pre-copy — two copy rounds while the process runs, then freeze
//     and ship only the dirty delta (fmigrate -s -r 2).
//
// Total is the fmigrate command's real time. Freeze is the source kernel's
// LastDump window — since migration became transactional, the whole time
// the process is unavailable on every path. For the streaming modes that
// spans the final transfer, the destination spool, and the restart; for
// stop it spans writing the dump files plus the frozen wait for the
// destination's restart acknowledgement.
type A6Point struct {
	Label      string
	ImageBytes int // hog data-segment size
	WSBytes    int // continuously re-dirtied working set

	StopTotal, StopFreeze     sim.Duration
	StreamTotal, StreamFreeze sim.Duration
	PreTotal, PreFreeze       sim.Duration

	StopDestNFS, StreamDestNFS, PreDestNFS    int64 // destination's NFS client bytes
	StopNetBytes, StreamNetBytes, PreNetBytes int64 // total network payload bytes
}

// a6Sizes is the sweep; tests and the benchmark table share it.
var a6Sizes = []struct {
	Label     string
	Total, WS int
}{
	{"64K/8K", 64 << 10, 8 << 10},
	{"256K/16K", 256 << 10, 16 << 10},
	{"512K/32K", 512 << 10, 32 << 10},
}

// A6Precopy sweeps image sizes and working sets over the three strategies.
func A6Precopy() ([]*A6Point, error) {
	var out []*A6Point
	for _, sz := range a6Sizes {
		pt, err := A6Measure(sz.Label, sz.Total, sz.WS)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// A6Measure runs all three strategies for one image/working-set size.
func A6Measure(label string, totalBytes, wsBytes int) (*A6Point, error) {
	pt := &A6Point{Label: label, ImageBytes: totalBytes, WSBytes: wsBytes}
	for _, mode := range []string{"stop", "stream", "pre"} {
		total, freeze, destNFS, netBytes, err := measureA6(mode, totalBytes, wsBytes)
		if err != nil {
			return nil, fmt.Errorf("a6 %s %s: %w", label, mode, err)
		}
		switch mode {
		case "stop":
			pt.StopTotal, pt.StopFreeze = total, freeze
			pt.StopDestNFS, pt.StopNetBytes = destNFS, netBytes
		case "stream":
			pt.StreamTotal, pt.StreamFreeze = total, freeze
			pt.StreamDestNFS, pt.StreamNetBytes = destNFS, netBytes
		case "pre":
			pt.PreTotal, pt.PreFreeze = total, freeze
			pt.PreDestNFS, pt.PreNetBytes = destNFS, netBytes
		}
	}
	return pt, nil
}

func measureA6(mode string, totalBytes, wsBytes int) (total, freeze sim.Duration, destNFS, netBytes int64, err error) {
	c, err := boot(kernel.Config{TrackNames: true}, "alpha", "beta", "gamma")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := c.InstallVM("/bin/a6hog", scenario.HogSrc(totalBytes, wsBytes)); err != nil {
		return 0, 0, 0, 0, err
	}
	net := c.NetHost("gamma").Network()
	var status int
	var fail error
	c.Eng.Go("driver", func(tk *sim.Task) {
		hog, serr := c.Spawn("alpha", nil, user, "/bin/a6hog")
		if serr != nil {
			fail = serr
			return
		}
		// A large image takes a while to load; wait until the hog is
		// executing, then let it run so the working set is hot.
		for hog.VM == nil && hog.State == kernel.ProcRunning {
			tk.Sleep(sim.Second)
		}
		tk.Sleep(2 * sim.Second)
		args := []string{"-p", fmt.Sprint(hog.PID), "-f", "alpha", "-t", "beta"}
		switch mode {
		case "stream":
			args = append(args, "-s", "-r", "0")
		case "pre":
			args = append(args, "-s", "-r", "2")
		}
		nfsBefore := c.NetHost("beta").ClientBytes(nfs.Port)
		start := netTraffic{Msgs: net.Messages, Bytes: net.Bytes}
		t0 := tk.Now()
		mig, serr := c.Spawn("gamma", nil, user, "/bin/fmigrate", args...)
		if serr != nil {
			fail = serr
			return
		}
		status = mig.AwaitExit(tk)
		total = sim.Duration(tk.Now() - t0)
		freeze = c.Machine("alpha").Metrics.LastDump.Real
		destNFS = c.NetHost("beta").ClientBytes(nfs.Port) - nfsBefore
		netBytes = trafficSince(net, start).Bytes
		// The migrated hog spins forever; kill everything to quiesce.
		for _, name := range c.Names() {
			for _, p := range c.Machine(name).Procs() {
				c.Machine(name).Kill(kernel.Creds{}, p.PID, kernel.SIGKILL)
			}
		}
	})
	if err := c.Run(); err != nil {
		return 0, 0, 0, 0, err
	}
	if fail != nil {
		return 0, 0, 0, 0, fail
	}
	if status != 0 {
		return 0, 0, 0, 0, fmt.Errorf("fmigrate exited %d", status)
	}
	return total, freeze, destNFS, netBytes, nil
}
