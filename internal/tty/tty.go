// Package tty implements the terminal subsystem: line-discipline devices
// with sgttyb-style mode flags. Preserving these flags across migration is
// one of the paper's explicit goals ("terminal modes such as raw or noecho
// are preserved, so that visual applications such as screen editors can be
// restarted properly"), and their loss through rsh is one of its explicit
// caveats — modeled here by mode-volatile network pseudo-terminals.
package tty

import (
	"bytes"

	"procmig/internal/errno"
	"procmig/internal/sim"
)

// Flags is the terminal mode word (a simplified sgttyb sg_flags).
type Flags uint16

// Terminal mode bits.
const (
	Echo   Flags = 1 << 0 // echo input characters
	CRMod  Flags = 1 << 1 // map CR to NL on input
	Raw    Flags = 1 << 2 // no line discipline: bytes available immediately
	CBreak Flags = 1 << 3 // like Raw but signals/echo still processed
	Tandem Flags = 1 << 4 // flow control (kept for dump fidelity; no effect)
)

// CookedDefault is the mode a fresh terminal starts in.
const CookedDefault = Echo | CRMod

// Terminal is one terminal (or window) device.
type Terminal struct {
	eng   *sim.Engine
	name  string
	flags Flags

	// volatile marks a network pseudo-terminal allocated by rsh: attempts
	// to enable Raw/CBreak or disable Echo do not stick, reproducing the
	// paper's "certain terminal modes can not be preserved when moving a
	// process to a remote host" limitation.
	volatile bool

	input   []byte
	eof     bool
	readers sim.Queue
	output  bytes.Buffer
}

// New creates a terminal in cooked mode.
func New(eng *sim.Engine, name string) *Terminal {
	return &Terminal{eng: eng, name: name, flags: CookedDefault}
}

// NewNetworkPTY creates the mode-volatile pseudo-terminal rsh allocates.
func NewNetworkPTY(eng *sim.Engine, name string) *Terminal {
	t := New(eng, name)
	t.volatile = true
	return t
}

// Name reports the device name.
func (t *Terminal) Name() string { return t.name }

// Flags reports the current mode word.
func (t *Terminal) Flags() Flags { return t.flags }

// SetFlags sets the mode word. On a network pty the request "succeeds"
// (as it did through rsh) but raw/cbreak/noecho silently do not stick.
func (t *Terminal) SetFlags(f Flags) {
	if t.volatile {
		f &^= Raw | CBreak
		f |= Echo
	}
	t.flags = f
}

// Type injects input, as if a user typed it, and wakes blocked readers.
func (t *Terminal) Type(s string) {
	b := []byte(s)
	if t.flags&CRMod != 0 {
		b = bytes.ReplaceAll(b, []byte("\r"), []byte("\n"))
	}
	t.input = append(t.input, b...)
	if t.flags&Echo != 0 {
		t.output.Write(b)
	}
	t.readers.WakeAll()
}

// TypeEOF marks end of input (^D at line start); blocked readers return 0
// bytes.
func (t *Terminal) TypeEOF() {
	t.eof = true
	t.readers.WakeAll()
}

// ready reports whether a read can complete now, and how many bytes it
// would return (0 with true means EOF).
func (t *Terminal) ready(max int) (int, bool) {
	if len(t.input) == 0 {
		return 0, t.eof
	}
	if t.flags&(Raw|CBreak) != 0 {
		n := len(t.input)
		if n > max {
			n = max
		}
		return n, true
	}
	// Canonical mode: a full line must be present.
	if i := bytes.IndexByte(t.input, '\n'); i >= 0 {
		n := i + 1
		if n > max {
			n = max
		}
		return n, true
	}
	if t.eof {
		n := len(t.input)
		if n > max {
			n = max
		}
		return n, true
	}
	return 0, false
}

// ReadQueue exposes the wait queue readers block on, so the kernel can
// interrupt a blocked read when a signal arrives.
func (t *Terminal) ReadQueue() *sim.Queue { return &t.readers }

// Read returns input per the current discipline, blocking the task until
// data (or EOF) is available. If interrupted (woken with nothing ready and
// intr returns true) it returns EINTR.
func (t *Terminal) Read(task *sim.Task, max int, intr func() bool) ([]byte, errno.Errno) {
	for {
		n, ok := t.ready(max)
		if ok {
			out := append([]byte(nil), t.input[:n]...)
			t.input = t.input[n:]
			return out, 0
		}
		if task == nil {
			return nil, errno.EAGAIN
		}
		// Check for interruption before sleeping as well as after waking:
		// a signal posted just before we got here must not be lost.
		if intr != nil && intr() {
			return nil, errno.EINTR
		}
		task.Wait(&t.readers)
		if intr != nil && intr() {
			if n, ok := t.ready(max); ok {
				out := append([]byte(nil), t.input[:n]...)
				t.input = t.input[n:]
				return out, 0
			}
			return nil, errno.EINTR
		}
	}
}

// Write appends to the terminal's output transcript.
func (t *Terminal) Write(data []byte) (int, errno.Errno) {
	t.output.Write(data)
	return len(data), 0
}

// Output returns the transcript so far.
func (t *Terminal) Output() string { return t.output.String() }
