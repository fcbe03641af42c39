package core_test

import (
	"fmt"
	"strings"
	"testing"

	"procmig/internal/core"
	"procmig/internal/errno"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

// A process has one arm slot for its next SIGDUMP: a streaming migration
// or guardian checkpoint arms it through DumpToStream, a migration
// transaction through ArmDumpHold. These tests pin the slot's rules: an
// armed slot refuses a second arm with EBUSY and keeps the first, a
// refused signal or a resolved hold leaves nothing armed, and the arm ends
// with the process.

// dumpFilesOn reports how many of pid's three dump files exist on m.
func dumpFilesOn(m *kernel.Machine, pid int) int {
	n := 0
	aoutPath, filesPath, stackPath := core.DumpPaths("", pid)
	for _, path := range []string{aoutPath, filesPath, stackPath} {
		if _, err := m.NS().ReadFile(path); err == nil {
			n++
		}
	}
	return n
}

// migratedTo reports whether m runs a process restarted from a dump image.
func migratedTo(m *kernel.Machine) bool {
	for _, pi := range m.PS() {
		if pi.State == kernel.ProcRunning && strings.Contains(pi.Cmd, "a.out") {
			return true
		}
	}
	return false
}

// TestArmHoldThenStream: a streaming dump tried while a dump hold is
// armed is refused without a signal. The hold still runs at the next
// SIGDUMP; once it is resolved the victim resumes and a streaming
// migration of it commits.
func TestArmHoldThenStream(t *testing.T) {
	c := boot(t, "brick", "schooner")
	var counter *kernel.Proc
	var holdErr, streamErr errno.Errno
	var frozen, resumed bool
	migStatus := -1
	c.Eng.Go("driver", func(tk *sim.Task) {
		counter = spawnOK(t, c, "brick", nil, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		var hold *core.DumpHold
		if hold, holdErr = core.ArmDumpHold(counter); holdErr != 0 {
			return
		}
		_, streamErr = core.DumpToStream(tk, counter, user, &core.StreamSession{})
		if e := c.Machine("brick").Kill(user, counter.PID, kernel.SIGDUMP); e != 0 {
			t.Errorf("SIGDUMP refused: %v", e)
		}
		frozen = hold.AwaitFrozen(tk)
		core.ResolveDumpHold(hold, false)
		tk.Sleep(sim.Second)
		resumed = counter.State == kernel.ProcRunning && counter.ArmedDump == nil
		mig := spawnOK(t, c, "schooner", nil, "/bin/fmigrate",
			"-p", fmt.Sprint(counter.PID), "-f", "brick", "-t", "schooner", "-s", "-r", "0")
		migStatus = mig.AwaitExit(tk)
		tk.Sleep(sim.Second)
		if !migratedTo(c.Machine("schooner")) {
			t.Error("no restarted process runs on schooner")
		}
		killAll(c)
	})
	run(t, c)
	if holdErr != 0 {
		t.Fatalf("ArmDumpHold on an empty slot: %v", holdErr)
	}
	if streamErr != errno.EBUSY {
		t.Fatalf("DumpToStream over a hold returned %v, want EBUSY", streamErr)
	}
	if !frozen {
		t.Fatal("the hold did not run at the next SIGDUMP")
	}
	if !resumed {
		t.Fatal("the aborted hold did not resume the victim with nothing armed")
	}
	if migStatus != 0 || counter.KilledBy != kernel.SIGDUMP {
		t.Fatalf("streaming migration after the hold: exit %d, source killed by %v", migStatus, counter.KilledBy)
	}
	if n := dumpFilesOn(c.Machine("brick"), counter.PID); n != 0 {
		t.Fatalf("%d dump files left on brick", n)
	}
}

// TestArmStreamThenHold: a dump hold tried while a streaming migration's
// dump waits for its signal is refused and leaves the stream's arm in
// place. The victim ignores SIGDUMP until then, so the stream's signal is
// spent without a dump; the next SIGDUMP runs the stream, the migration
// commits, and migd's DumpToStream returns.
func TestArmStreamThenHold(t *testing.T) {
	c := boot(t, "brick", "schooner")
	var counter *kernel.Proc
	var holdErr errno.Errno
	var streamArmed, stillArmed bool
	migStatus := -1
	c.Eng.Go("driver", func(tk *sim.Task) {
		counter = spawnOK(t, c, "brick", nil, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		counter.SigActions[kernel.SIGDUMP] = kernel.SigAction{Disposition: kernel.SigIgnore}
		mig := spawnOK(t, c, "schooner", nil, "/bin/fmigrate",
			"-p", fmt.Sprint(counter.PID), "-f", "brick", "-t", "schooner", "-s", "-r", "0")
		for i := 0; i < 100 && counter.ArmedDump == nil; i++ {
			tk.Sleep(100 * sim.Millisecond)
		}
		streamArmed = counter.ArmedDump != nil
		var hold *core.DumpHold
		hold, holdErr = core.ArmDumpHold(counter)
		if hold != nil {
			core.ResolveDumpHold(hold, false)
		}
		stillArmed = counter.ArmedDump != nil
		counter.SigActions[kernel.SIGDUMP] = kernel.SigAction{}
		if e := c.Machine("brick").Kill(user, counter.PID, kernel.SIGDUMP); e != 0 {
			t.Errorf("SIGDUMP refused: %v", e)
		}
		migStatus = mig.AwaitExit(tk)
		tk.Sleep(sim.Second)
		if !migratedTo(c.Machine("schooner")) {
			t.Error("no restarted process runs on schooner")
		}
		killAll(c)
	})
	run(t, c)
	if !streamArmed {
		t.Fatal("DumpToStream left no arm while its signal was ignored")
	}
	if holdErr != errno.EBUSY {
		t.Fatalf("ArmDumpHold over a stream returned %v, want EBUSY", holdErr)
	}
	if !stillArmed {
		t.Fatal("the refused hold disarmed the stream")
	}
	if migStatus != 0 || counter.KilledBy != kernel.SIGDUMP {
		t.Fatalf("streaming migration: exit %d, source killed by %v", migStatus, counter.KilledBy)
	}
	if n := dumpFilesOn(c.Machine("brick"), counter.PID); n != 0 {
		t.Fatalf("%d dump files written on brick: a hold ran", n)
	}
}

// TestRefusedSignalLeavesNothingArmed: when Kill refuses the SIGDUMP,
// DumpToStream disarms before returning the errno, and resolving an
// unfired hold disarms it — so a later plain SIGDUMP dumps classically.
func TestRefusedSignalLeavesNothingArmed(t *testing.T) {
	c := boot(t, "brick")
	other := kernel.Creds{UID: 200, GID: 20, EUID: 200, EGID: 20}
	m := c.Machine("brick")
	var counter *kernel.Proc
	var streamErr, holdErr errno.Errno
	var afterStream, afterHold bool
	c.Eng.Go("driver", func(tk *sim.Task) {
		counter = spawnOK(t, c, "brick", nil, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		_, streamErr = core.DumpToStream(tk, counter, other, &core.StreamSession{})
		afterStream = counter.ArmedDump == nil
		hold, _ := core.ArmDumpHold(counter)
		holdErr = m.Kill(other, counter.PID, kernel.SIGDUMP)
		core.ResolveDumpHold(hold, false)
		afterHold = counter.ArmedDump == nil
		m.Kill(user, counter.PID, kernel.SIGDUMP)
		counter.AwaitExit(tk)
	})
	run(t, c)
	if streamErr != errno.EPERM || holdErr != errno.EPERM {
		t.Fatalf("refused signals returned %v and %v, want EPERM", streamErr, holdErr)
	}
	if !afterStream || !afterHold {
		t.Fatalf("arm left after refusal: stream disarmed=%v hold disarmed=%v", afterStream, afterHold)
	}
	if counter.KilledBy != kernel.SIGDUMP {
		t.Fatalf("plain SIGDUMP: process killed by %v", counter.KilledBy)
	}
	if n := dumpFilesOn(m, counter.PID); n != 3 {
		t.Fatalf("plain SIGDUMP wrote %d of 3 dump files", n)
	}
}

// TestReapedProcessTakesItsArm: a process that dies with a hold armed
// leaves nothing armed and nothing in the process table, and the
// coordinator learns it will never freeze.
func TestReapedProcessTakesItsArm(t *testing.T) {
	c := boot(t, "brick")
	m := c.Machine("brick")
	var counter *kernel.Proc
	var frozen, found bool
	c.Eng.Go("driver", func(tk *sim.Task) {
		counter = spawnOK(t, c, "brick", nil, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		hold, _ := core.ArmDumpHold(counter)
		m.Kill(user, counter.PID, kernel.SIGKILL)
		counter.AwaitExit(tk)
		frozen = hold.AwaitFrozen(tk)
		_, found = m.FindProc(counter.PID)
	})
	run(t, c)
	if counter.ArmedDump != nil {
		t.Fatal("the dead process still holds its arm")
	}
	if found {
		t.Fatal("the dead process was never reaped")
	}
	if frozen {
		t.Fatal("AwaitFrozen reported a freeze for a killed process")
	}
}
