package apps_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"procmig/internal/apps"
	"procmig/internal/cluster"
	"procmig/internal/errno"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

// TestRshRelaysRemoteOutput: output the remote command writes to its pty
// comes back to the rsh caller's terminal.
func TestRshRelaysRemoteOutput(t *testing.T) {
	c := boot(t, "brick", "schooner")
	term := c.Console("brick")
	c.Eng.Go("driver", func(tk *sim.Task) {
		// Remote ps writes its table to the rsh pty; rsh copies it home.
		p, _ := c.Spawn("brick", term, user, "/bin/rsh", "schooner", "ps")
		if st := p.AwaitExit(tk); st != 0 {
			t.Errorf("rsh ps exit = %d", st)
		}
	})
	run(t, c)
	if !strings.Contains(term.Output(), "COMMAND") {
		t.Fatalf("rsh did not relay remote output: %q", term.Output())
	}
}

// TestRshToUnknownCommandFails.
func TestRshUnknownCommand(t *testing.T) {
	c := boot(t, "brick", "schooner")
	var status int
	c.Eng.Go("driver", func(tk *sim.Task) {
		p, _ := c.Spawn("brick", nil, user, "/bin/rsh", "schooner", "nosuchcmd")
		status = p.AwaitExit(tk)
	})
	run(t, c)
	if status == 0 {
		t.Fatal("rsh of a nonexistent command succeeded")
	}
}

// TestRshRunsAsRequestingUser: the remote process carries the caller's
// uid (the era's trusting .rhosts model).
func TestRshRunsAsRequestingUser(t *testing.T) {
	c := boot(t, "brick", "schooner")
	// A victim owned by another user on schooner; remote dumpproc as the
	// default user must be refused by the kill permission check.
	other := kernel.Creds{UID: 200, GID: 20, EUID: 200, EGID: 20}
	if err := c.InstallVM("/bin/hog2", cluster.HogSrc); err != nil {
		t.Fatal(err)
	}
	var victim *kernel.Proc
	var status int
	c.Eng.Go("driver", func(tk *sim.Task) {
		victim, _ = c.Spawn("schooner", nil, other, "/bin/hog2")
		tk.Sleep(sim.Second)
		p, _ := c.Spawn("brick", nil, user, "/bin/rsh", "schooner",
			"dumpproc", "-p", fmt.Sprint(victim.PID))
		status = p.AwaitExit(tk)
		c.Machine("schooner").Kill(kernel.Creds{}, victim.PID, kernel.SIGKILL)
	})
	run(t, c)
	if status == 0 {
		t.Fatal("remote dumpproc of another user's process succeeded")
	}
}

// TestFmigrateEndToEnd: the daemon-based migrate moves the counter and it
// keeps running.
func TestFmigrateEndToEnd(t *testing.T) {
	c := boot(t, "brick", "schooner", "brador")
	if err := c.InstallVM("/bin/counter", cluster.TestProgramSrc); err != nil {
		t.Fatal(err)
	}
	var status int
	c.Eng.Go("driver", func(tk *sim.Task) {
		p, _ := c.Spawn("brick", nil, user, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		fm, _ := c.Spawn("brador", nil, user, "/bin/fmigrate",
			"-p", fmt.Sprint(p.PID), "-f", "brick", "-t", "schooner")
		status = fm.AwaitExit(tk)
		tk.Sleep(2 * sim.Second)
		c.Console("schooner").TypeEOF()
		// The migrated process reads from a network pty, not the console;
		// kill it to finish.
		for _, pi := range c.Machine("schooner").PS() {
			c.Machine("schooner").Kill(kernel.Creds{}, pi.PID, kernel.SIGKILL)
		}
	})
	// brador must exist for the fmigrate invocation host.
	_ = status
	run(t, c)
	if status != 0 {
		t.Fatalf("fmigrate exit = %d", status)
	}
}

// TestCkptRestoreSecondCheckpoint: restoring -n 2 resumes from the later
// snapshot.
func TestCkptRestoreSecondCheckpoint(t *testing.T) {
	c := boot(t, "brick")
	if err := c.InstallVM("/bin/counter", cluster.TestProgramSrc); err != nil {
		t.Fatal(err)
	}
	term := c.Console("brick")
	var ckStatus, rsStatus int
	c.Eng.Go("driver", func(tk *sim.Task) {
		p, _ := c.Spawn("brick", term, user, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		term.Type("one\n")
		cp, _ := c.Spawn("brick", term, user, "/bin/ckpt",
			"-p", fmt.Sprint(p.PID), "-i", "5", "-n", "2", "-d", "/home/s")
		tk.Sleep(7 * sim.Second)
		term.Type("two\n") // after snapshot 1, before snapshot 2
		ckStatus = cp.AwaitExit(tk)

		// Kill the live incarnation, restore snapshot 2.
		for _, pi := range c.Machine("brick").PS() {
			if strings.Contains(pi.Cmd, "a.out") {
				c.Machine("brick").Kill(kernel.Creds{}, pi.PID, kernel.SIGKILL)
			}
		}
		tk.Sleep(sim.Second)
		rs, _ := c.Spawn("brick", term, user, "/bin/ckptrestore", "-d", "/home/s", "-n", "2")
		rsStatus = rs.AwaitExit(tk)
		tk.Sleep(2 * sim.Second)
		term.Type("three\n")
		tk.Sleep(2 * sim.Second)
		term.TypeEOF()
	})
	run(t, c)
	if ckStatus != 0 || rsStatus != 0 {
		t.Fatalf("ckpt = %d restore = %d (tty %q)", ckStatus, rsStatus, term.Output())
	}
	// Snapshot 2 had seen both "one" and "two": the restored run appends
	// "three" after them.
	data, err := c.Machine("brick").NS().ReadFile("/home/out")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "one\ntwo\nthree\n" {
		t.Fatalf("out = %q, want the second checkpoint's view + three", data)
	}
}

// TestCkptRestoreMissingCheckpoint.
func TestCkptRestoreMissingCheckpoint(t *testing.T) {
	c := boot(t, "brick")
	var status int
	c.Eng.Go("driver", func(tk *sim.Task) {
		rs, _ := c.Spawn("brick", nil, user, "/bin/ckptrestore", "-d", "/home/nowhere", "-n", "1")
		status = rs.AwaitExit(tk)
	})
	run(t, c)
	if status == 0 {
		t.Fatal("restore from a nonexistent checkpoint succeeded")
	}
}

// TestBalancerNoOpWhenBalanced: nothing moves when load is level.
func TestBalancerNoOpWhenBalanced(t *testing.T) {
	c := boot(t, "m1", "m2")
	if err := c.StartHA(ha.Config{Interval: sim.Second}); err != nil {
		t.Fatal(err)
	}
	c.Eng.Go("driver", func(tk *sim.Task) {
		h1, _ := c.Spawn("m1", nil, user, "/bin/hog")
		h2, _ := c.Spawn("m2", nil, user, "/bin/hog")
		b := &apps.Balancer{
			Host:   c.NetHost("m1"),
			View:   c.HA("m1"),
			Period: 5 * sim.Second,
			MinAge: sim.Second,
		}
		tk.Sleep(6 * sim.Second)
		if b.Step(tk) {
			t.Error("balancer moved a process on level load")
		}
		h1.AwaitExit(tk)
		h2.AwaitExit(tk)
		c.StopHA()
	})
	run(t, c)
}

// TestMigrateProcFailsForBadPid.
func TestMigrateProcFailsForBadPid(t *testing.T) {
	c := boot(t, "m1", "m2")
	var err error
	c.Eng.Go("driver", func(tk *sim.Task) {
		_, err = apps.MigrateProc(tk, c.Machine("m1"), c.Machine("m2"), 31337)
	})
	run(t, c)
	if err == nil {
		t.Fatal("MigrateProc of a nonexistent pid succeeded")
	}
}

// TestPrecopyRefusesTxnZero: a precopy request without a transaction id
// is input from outside that no client sends; migd answers EINVAL and
// leaves the process running where it is. The request and answer types
// mirror migd's, which gob matches by field name.
func TestPrecopyRefusesTxnZero(t *testing.T) {
	type precopyReq struct {
		UID, GID, PID int
		Dest          string
		Rounds        int
		Txn           uint32
		Wire          byte
	}
	type remoteResp struct {
		Status int
		Err    string
	}
	c := boot(t, "brick", "schooner")
	var resp remoteResp
	var running bool
	var callErr error
	c.Eng.Go("driver", func(tk *sim.Task) {
		p, _ := c.Spawn("brick", nil, user, "/bin/counter")
		pid := p.PID
		tk.Sleep(2 * sim.Second)
		var req bytes.Buffer
		if err := gob.NewEncoder(&req).Encode(&precopyReq{PID: pid, Dest: "schooner", Rounds: 2}); err != nil {
			callErr = err
			return
		}
		raw, err := c.NetHost("schooner").Call(tk, "brick", apps.MigdPrecopyPort, req.Bytes())
		if err != nil {
			callErr = err
			return
		}
		callErr = gob.NewDecoder(bytes.NewReader(raw)).Decode(&resp)
		running = p.State == kernel.ProcRunning
		c.Machine("brick").Kill(kernel.Creds{}, pid, kernel.SIGKILL)
	})
	run(t, c)
	if callErr != nil {
		t.Fatal(callErr)
	}
	if resp.Status != -1 || resp.Err != errno.EINVAL.Error() {
		t.Fatalf("txn 0 answered %+v, want EINVAL", resp)
	}
	if !running {
		t.Fatal("the refused request stopped the process")
	}
	if n := c.NetHost("brick").ClientBytes(apps.MigdStreamPort); n != 0 {
		t.Fatalf("a refused request streamed %d B", n)
	}
}
