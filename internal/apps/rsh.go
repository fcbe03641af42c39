// Package apps implements the applications around the migration
// mechanism: the rsh facility migrate leans on (§4.1), the migration
// daemon the paper proposes as rsh's replacement (§6.4), and the §8
// applications — checkpointing and load balancing.
package apps

import (
	"bytes"
	"encoding/gob"
	"strconv"

	"procmig/internal/core"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/tty"
)

// Service ports.
const (
	RshPort  = 514
	MigdPort = 515
)

// Era-appropriate costs. rsh's connection setup (reserved-port allocation,
// name service lookups, rshd fork and .rhosts validation) dominated its
// latency on 1987 Suns; the paper reports migrate paying "as much as ten
// times more" than dumpproc+restart because of it (§6.4). These are vars
// so the ablation benchmarks can sweep them.
var (
	RshConnectCost  sim.Duration = 11 * sim.Second
	RshdSetupCost   sim.Duration = 1500 * sim.Millisecond
	MigdRequestCost sim.Duration = 120 * sim.Millisecond
)

// remoteReq asks a daemon to run a command as a user.
type remoteReq struct {
	UID, GID int
	Cmd      string // program name under /bin
	Args     []string
}

// remoteResp reports the command's exit status and terminal output. PID
// is set when the command became a migrated process (a successful
// restart): the pid the live copy runs under on this machine.
type remoteResp struct {
	Status int
	Output string
	Err    string
	PID    int
}

func encode(v any) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		panic("apps: encode: " + err.Error())
	}
	return b.Bytes()
}

func decode(raw []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(v)
}

// gob numbers wire types process-wide in first-use order, and every
// message carries its types' ids, so a message's size would depend on
// what the process encoded before. Encoding each daemon message once at
// init fixes the ids before any cluster runs.
func init() {
	encode(&remoteReq{})
	encode(&remoteResp{})
	encode(&precopyReq{})
}

// runRemoteCommand executes one daemon request on machine m: spawn the
// program on a network pty and wait for it.
func runRemoteCommand(t *sim.Task, m *kernel.Machine, req *remoteReq) *remoteResp {
	pty := tty.NewNetworkPTY(m.Engine(), "net-pty")
	creds := kernel.Creds{UID: req.UID, GID: req.GID, EUID: req.UID, EGID: req.GID}
	stdio := m.NewTerminalFile(kernel.NewTTYDevice(pty))
	p, err := m.Spawn(kernel.SpawnSpec{
		Path:       "/bin/" + req.Cmd,
		Args:       append([]string{req.Cmd}, req.Args...),
		Creds:      creds,
		CWD:        "/",
		TTY:        pty,
		InheritFDs: []*kernel.File{stdio, stdio, stdio},
	})
	if err != nil {
		return &remoteResp{Status: -1, Err: err.Error()}
	}
	// A restart command that succeeds does not exit — it becomes the
	// migrated process; treat that as successful completion.
	status, migrated := p.AwaitExitOrMigrated(t)
	resp := &remoteResp{Status: status, Output: pty.Output()}
	if migrated {
		resp.PID = p.PID
	}
	return resp
}

// StartRshd registers the remote-shell daemon for machine m on its
// network host.
func StartRshd(m *kernel.Machine, host *netsim.Host) error {
	return host.Listen(RshPort, func(t *sim.Task, raw []byte) []byte {
		var req remoteReq
		if err := decode(raw, &req); err != nil {
			return encode(&remoteResp{Status: -1, Err: "bad request"})
		}
		if t != nil {
			t.Sleep(RshdSetupCost) // fork, .rhosts validation, pty setup
		}
		return encode(runRemoteCommand(t, m, &req))
	})
}

// NewRsh builds the rsh client program for a machine attached to the
// network at host. Usage: rsh host command [args...].
func NewRsh(host *netsim.Host) kernel.HostedProg {
	return func(sys *kernel.Sys, args []string) int {
		if len(args) < 3 {
			sys.Write(2, []byte("usage: rsh host command [args...]\n"))
			return 2
		}
		// Connection establishment: the expensive part.
		sys.Sleep(RshConnectCost)
		req := &remoteReq{UID: sys.Getuid(), GID: sys.Proc().Creds.GID, Cmd: args[2], Args: args[3:]}
		raw, err := host.Call(nil, args[1], RshPort, encode(req))
		if err != nil {
			sys.Write(2, []byte("rsh: "+args[1]+": "+err.Error()+"\n"))
			return 1
		}
		var resp remoteResp
		if err := decode(raw, &resp); err != nil {
			return 1
		}
		if resp.Output != "" {
			sys.Write(1, []byte(resp.Output))
		}
		if resp.Err != "" {
			sys.Write(2, []byte("rsh: "+resp.Err+"\n"))
		}
		return resp.Status
	}
}

// StartMigd registers the migration daemon the paper proposes in §6.4:
// "instead of using rsh to start processes remotely, applications will
// simply send messages to the daemon, who will start the processes on
// their behalf" — a well-known port, no per-invocation connection setup.
func StartMigd(m *kernel.Machine, host *netsim.Host) error {
	st := newMigdState(m.Obs)
	if err := host.Listen(MigdPort, func(t *sim.Task, raw []byte) []byte {
		var req remoteReq
		if err := decode(raw, &req); err != nil {
			return encode(&remoteResp{Status: -1, Err: "bad request"})
		}
		if t != nil {
			t.Sleep(MigdRequestCost)
		}
		// The transaction verbs (txn.go) share the port and request
		// format with plain remote execution.
		switch req.Cmd {
		case cmdTxMigrate:
			return encode(handleTxnMigrate(t, m, st, host, &req))
		case cmdTxRestart:
			return encode(handleTxnRestart(t, m, st, &req))
		case cmdTxQuery:
			return encode(handleTxnQuery(st, &req))
		case cmdTxAbort:
			return encode(handleTxnAbort(st, &req))
		}
		return encode(runRemoteCommand(t, m, &req))
	}); err != nil {
		return err
	}
	return startStreamMigd(m, st, host)
}

// NewFastMigrate builds the improved migrate that talks to migd instead
// of shelling out through rsh. Usage:
//
//	fmigrate -p pid [-f from] [-t to] [-s [-r rounds] [-w mode]] [-n attempts]
//
// With -s the image is streamed migd-to-migd (pre-copy; -r sets the number
// of copy rounds before the freeze, 0 meaning freeze-then-stream and "a"
// letting migd pre-copy adaptively until the dirty set converges) instead
// of going through the dump files on the source's /usr/tmp. -w picks the
// wire encoding: lz (dedup + zero-page elision + compression, the
// default), elide (dedup and zero pages only) or raw. Either way the
// migration runs as a transaction (txn.go): the original survives, frozen,
// until the destination acknowledges the restart, and resumes in place on
// any failure. -n sets how often the whole transaction is retried.
func NewFastMigrate(host *netsim.Host) kernel.HostedProg {
	return newMigrateClient(host, "fmigrate", 3)
}

// NewRMigrate builds rmigrate, the robust migrate: identical to fmigrate
// but tuned for hostile networks — twice the transaction attempts by
// default. Usage: rmigrate -p pid [-f from] [-t to] [-s [-r rounds] [-w mode]] [-n attempts].
func NewRMigrate(host *netsim.Host) kernel.HostedProg {
	return newMigrateClient(host, "rmigrate", 6)
}

func newMigrateClient(host *netsim.Host, name string, defaultAttempts int) kernel.HostedProg {
	return func(sys *kernel.Sys, args []string) int {
		flags := core.ParseFlags(args[1:])
		pid, perr := strconv.Atoi(flags["p"])
		if flags["p"] == "" || perr != nil {
			sys.Write(2, []byte("usage: "+name+" -p pid [-f fromhost] [-t tohost] [-s [-r rounds]] [-n attempts]\n"))
			return 2
		}
		local := sys.Gethostname()
		from, to := flags["f"], flags["t"]
		if from == "" {
			from = local
		}
		if to == "" {
			to = local
		}
		rounds := 2
		if r, ok := flags["r"]; ok {
			if r == "a" {
				rounds = -1 // adaptive: migd decides when pre-copy converged
			} else {
				v, err := strconv.Atoi(r)
				if err != nil || v < 0 {
					sys.Write(2, []byte(name+": bad -r\n"))
					return 2
				}
				rounds = v
			}
		}
		wire, wok := core.ParseWireMode(flags["w"])
		if !wok {
			sys.Write(2, []byte(name+": bad -w (want raw, elide or lz)\n"))
			return 2
		}
		attempts := defaultAttempts
		if n, ok := flags["n"]; ok {
			v, err := strconv.Atoi(n)
			if err != nil || v < 1 {
				sys.Write(2, []byte(name+": bad -n\n"))
				return 2
			}
			attempts = v
		}
		_, streaming := flags["s"]
		status, msg := migrateTxn(sys, host, pid, from, to, streaming, rounds, attempts, wire)
		if status != 0 {
			sys.Write(2, []byte(name+": "+msg+"\n"))
			return 1
		}
		return 0
	}
}
