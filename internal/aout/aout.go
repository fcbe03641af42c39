// Package aout implements the executable and core-dump file formats of the
// simulated system, in the spirit of the 4.2BSD a.out format the paper's
// SIGDUMP leans on: the dump's a.outXXXXX file is an ordinary executable
// whose data segment holds the dumped process's current data, "which gives
// us, incidentally, the undump utility for free".
package aout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"procmig/internal/vm"
)

// Magic numbers. OMAGIC matches the historical value; HostedMagic marks the
// stub executables that name a hosted (Go-implemented) user program; the
// core magic is arbitrary, like the paper's 0444/0445 dump magics.
const (
	OMAGIC      = 0o407 // VM executable
	HostedMagic = 0o405 // hosted-program stub
	CoreMagic   = 0o441 // core dump (SIGQUIT)
)

// Common errors.
var (
	ErrBadMagic  = errors.New("aout: bad magic number")
	ErrTruncated = errors.New("aout: truncated file")
	ErrNotHosted = errors.New("aout: not a hosted stub")
)

// Exec is a parsed executable: a header plus the text and data images.
type Exec struct {
	ISA   vm.Level // minimum ISA level the text requires
	Entry uint32
	Text  []byte
	Data  []byte
}

// header layout: magic(2) isa(2) textsize(4) datasize(4) entry(4)
const headerSize = 16

// Layout allocates an executable file of its exact length, big-endian like
// the 68000 family, writes the header and text, and returns the file with
// its data region, still zero, for the caller to fill in place: a dump's
// a.out is as big as the process image, so it is built once, where it
// will live.
func Layout(isa vm.Level, entry uint32, text []byte, dataLen int) (raw, data []byte) {
	raw = make([]byte, headerSize+len(text)+dataLen)
	binary.BigEndian.PutUint16(raw[0:], OMAGIC)
	binary.BigEndian.PutUint16(raw[2:], uint16(isa))
	binary.BigEndian.PutUint32(raw[4:], uint32(len(text)))
	binary.BigEndian.PutUint32(raw[8:], uint32(dataLen))
	binary.BigEndian.PutUint32(raw[12:], entry)
	n := copy(raw[headerSize:], text)
	return raw, raw[headerSize+n:]
}

// Encode serializes the executable into one buffer of its exact length.
func (e *Exec) Encode() []byte {
	raw, data := Layout(e.ISA, e.Entry, e.Text, len(e.Data))
	copy(data, e.Data)
	return raw
}

// Decode parses an executable produced by Encode. It does not copy: Text
// and Data are full-slice expressions of raw (cap == len, so appending to
// one never overwrites the other or the bytes after it), and they share
// raw's storage. The caller hands over a buffer it owns, such as a
// ReadAt result, and must not reuse it while the Exec is live.
func Decode(raw []byte) (*Exec, error) {
	if len(raw) < headerSize {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(raw[0:]) != OMAGIC {
		return nil, ErrBadMagic
	}
	isa := vm.Level(binary.BigEndian.Uint16(raw[2:]))
	tsz := uint64(binary.BigEndian.Uint32(raw[4:]))
	dsz := uint64(binary.BigEndian.Uint32(raw[8:]))
	entry := binary.BigEndian.Uint32(raw[12:])
	// The sizes are untrusted: add them in 64 bits, where two 32-bit
	// sizes cannot wrap past the file length.
	if uint64(len(raw)) < headerSize+tsz+dsz {
		return nil, ErrTruncated
	}
	t := headerSize + int(tsz)
	d := t + int(dsz)
	return &Exec{ISA: isa, Entry: entry, Text: raw[headerSize:t:t], Data: raw[t:d:d]}, nil
}

// EncodeHosted builds a hosted-program stub: an "executable" whose body is
// just the registered program name. The kernel's exec recognises the magic
// and dispatches to the Go implementation registered under that name.
func EncodeHosted(name string) []byte {
	b := make([]byte, 0, 4+len(name))
	b = binary.BigEndian.AppendUint16(b, HostedMagic)
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	return append(b, name...)
}

// DecodeHosted extracts the program name from a hosted stub.
func DecodeHosted(raw []byte) (string, error) {
	if len(raw) < 4 {
		return "", ErrTruncated
	}
	if binary.BigEndian.Uint16(raw[0:]) != HostedMagic {
		return "", ErrNotHosted
	}
	n := int(binary.BigEndian.Uint16(raw[2:]))
	if len(raw) < 4+n {
		return "", ErrTruncated
	}
	return string(raw[4 : 4+n]), nil
}

// IsHosted reports whether raw looks like a hosted stub.
func IsHosted(raw []byte) bool {
	return len(raw) >= 2 && binary.BigEndian.Uint16(raw[0:]) == HostedMagic
}

// Core is a SIGQUIT core dump: the data segment and stack at the time of
// death plus the registers — a subset of what SIGDUMP saves.
type Core struct {
	ISA   vm.Level
	Entry uint32 // entry of the executable that dumped
	Regs  vm.Regs
	Data  []byte
	Stack []byte
}

// core layout: magic(2) isa(2) entry(4) datasize(4) stacksize(4)
// regs: 9*4 + pc(4) + flags(1), then data, then stack.
const coreFixed = 16 + vm.NumRegs*4 + 4 + 1

// Encode serializes the core dump.
func (c *Core) Encode() []byte {
	var b bytes.Buffer
	var hdr [16]byte
	binary.BigEndian.PutUint16(hdr[0:], CoreMagic)
	binary.BigEndian.PutUint16(hdr[2:], uint16(c.ISA))
	binary.BigEndian.PutUint32(hdr[4:], c.Entry)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(c.Data)))
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(c.Stack)))
	b.Write(hdr[:])
	var regs [vm.NumRegs*4 + 4 + 1]byte
	for i, r := range c.Regs.R {
		binary.BigEndian.PutUint32(regs[i*4:], r)
	}
	binary.BigEndian.PutUint32(regs[vm.NumRegs*4:], c.Regs.PC)
	var fl byte
	if c.Regs.Z {
		fl |= 1
	}
	if c.Regs.N {
		fl |= 2
	}
	regs[vm.NumRegs*4+4] = fl
	b.Write(regs[:])
	b.Write(c.Data)
	b.Write(c.Stack)
	return b.Bytes()
}

// DecodeCore parses a core dump.
func DecodeCore(raw []byte) (*Core, error) {
	if len(raw) < coreFixed {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(raw[0:]) != CoreMagic {
		return nil, ErrBadMagic
	}
	c := &Core{
		ISA:   vm.Level(binary.BigEndian.Uint16(raw[2:])),
		Entry: binary.BigEndian.Uint32(raw[4:]),
	}
	dsz := binary.BigEndian.Uint32(raw[8:])
	ssz := binary.BigEndian.Uint32(raw[12:])
	p := 16
	for i := range c.Regs.R {
		c.Regs.R[i] = binary.BigEndian.Uint32(raw[p:])
		p += 4
	}
	c.Regs.PC = binary.BigEndian.Uint32(raw[p:])
	p += 4
	fl := raw[p]
	p++
	c.Regs.Z = fl&1 != 0
	c.Regs.N = fl&2 != 0
	if uint64(len(raw)) < uint64(p)+uint64(dsz)+uint64(ssz) {
		return nil, ErrTruncated
	}
	c.Data = append([]byte(nil), raw[p:p+int(dsz)]...)
	c.Stack = append([]byte(nil), raw[p+int(dsz):p+int(dsz)+int(ssz)]...)
	return c, nil
}

// Undump combines an executable with a core dump from a run of that
// executable, producing a new executable whose static (data-segment)
// variables are initialised to the values they had at dump time — the
// classical undump utility the paper notes falls out of SIGDUMP for free.
// Registers and stack are NOT carried over: running the result is like
// running the original from the beginning with updated statics.
func Undump(exe *Exec, core *Core) (*Exec, error) {
	if len(core.Data) != len(exe.Data) {
		return nil, fmt.Errorf("aout: core data size %d does not match executable data size %d", len(core.Data), len(exe.Data))
	}
	return &Exec{
		ISA:   exe.ISA,
		Entry: exe.Entry,
		Text:  append([]byte(nil), exe.Text...),
		Data:  append([]byte(nil), core.Data...),
	}, nil
}
