// Package core implements the paper's contribution: the SIGDUMP dump
// writer and its three dump files (§4.3), the rest_proc() system call
// (§5.2), and the user-level programs dumpproc, restart and migrate (§4.1,
// §4.4), plus the undump utility and the §7 pid/hostname-spoofing
// extension state.
//
// The kernel pieces are installed into a machine with Install; the user
// programs are registered as hosted programs by the cluster package.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"procmig/internal/kernel"
	"procmig/internal/tty"
	"procmig/internal/vm"
)

// Magic numbers, exactly the paper's arbitrary choices: octal 444 for the
// stack file and 445 for the files file.
const (
	StackMagic = 0o444
	FilesMagic = 0o445
)

// Dump file name prefixes in /usr/tmp (§4.3).
const (
	DumpDir     = "/usr/tmp"
	AoutPrefix  = "a.out"
	FilesPrefix = "files"
	StackPrefix = "stack"
)

// DumpPaths returns the three dump file paths for a pid, relative to the
// given root prefix ("" for local, "/n/<host>" for remote access).
func DumpPaths(prefix string, pid int) (aoutPath, filesPath, stackPath string) {
	suffix := fmt.Sprintf("%05d", pid)
	return prefix + DumpDir + "/" + AoutPrefix + suffix,
		prefix + DumpDir + "/" + FilesPrefix + suffix,
		prefix + DumpDir + "/" + StackPrefix + suffix
}

// Errors.
var (
	ErrBadMagic     = errors.New("core: bad dump file magic")
	ErrTruncated    = errors.New("core: truncated dump file")
	ErrNotCommitted = errors.New("core: stream image has no matching commit record")
	ErrHashMismatch = errors.New("core: page-ref hash does not match held page")
	ErrBadGeometry  = errors.New("core: stream geometry outside the address space")
)

// FDKind classifies one open-file-table entry in the files file.
type FDKind byte

// Entry kinds. The paper keeps no extra information for sockets ("since
// the process migration mechanism does not currently support sockets");
// the socket-migration extension adds FDSocketBound entries that do carry
// the bound port.
const (
	FDUnused      FDKind = 0
	FDFile        FDKind = 1
	FDSocket      FDKind = 2
	FDSocketBound FDKind = 3 // extension: datagram socket with a bound port
)

// FDEntry is one slot of the dumped open file table.
type FDEntry struct {
	Kind   FDKind
	Path   string // absolute path name (lexical, symlinks unresolved)
	Flags  uint32 // open(2) access flags
	Offset uint32
	Port   uint16 // FDSocketBound only (extension)
}

// FilesFile is the information "not needed by the kernel to restart the
// process, but [which] must be used at user level" (§4.3): identification,
// host, cwd, the open file table, and the terminal flags.
type FilesFile struct {
	Host string
	CWD  string
	FDs  [kernel.NOFILE]FDEntry
	TTY  tty.Flags
}

// StackFile is "all the information that is required by the kernel to
// restart a process" (§4.3): credentials, the stack, the registers, and
// the signal dispositions. OldPID is an extension field used only by the
// §7 spoofing option.
type StackFile struct {
	Creds      kernel.Creds
	Stack      []byte
	Regs       vm.Regs
	SigActions [kernel.NSIG]kernel.SigAction
	OldPID     uint32
}

// --- binary encoding (big-endian, like everything on a 68k) ----------------

func putString(b *bytes.Buffer, s string) {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	b.Write(l[:])
	b.WriteString(s)
}

type reader struct {
	buf []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) str() string {
	n := int(r.u16())
	b := r.take(n)
	return string(b)
}

// Encode serializes the files file.
func (f *FilesFile) Encode() []byte {
	var b bytes.Buffer
	var w [4]byte
	binary.BigEndian.PutUint16(w[:2], FilesMagic)
	b.Write(w[:2])
	putString(&b, f.Host)
	putString(&b, f.CWD)
	for _, e := range f.FDs {
		b.WriteByte(byte(e.Kind))
		switch e.Kind {
		case FDFile:
			putString(&b, e.Path)
			binary.BigEndian.PutUint32(w[:], e.Flags)
			b.Write(w[:])
			binary.BigEndian.PutUint32(w[:], e.Offset)
			b.Write(w[:])
		case FDSocketBound:
			binary.BigEndian.PutUint16(w[:2], e.Port)
			b.Write(w[:2])
		}
	}
	binary.BigEndian.PutUint16(w[:2], uint16(f.TTY))
	b.Write(w[:2])
	return b.Bytes()
}

// DecodeFiles parses a files file, verifying its magic number.
func DecodeFiles(raw []byte) (*FilesFile, error) {
	r := &reader{buf: raw}
	if r.u16() != FilesMagic {
		if r.err != nil {
			return nil, r.err
		}
		return nil, ErrBadMagic
	}
	f := &FilesFile{}
	f.Host = r.str()
	f.CWD = r.str()
	for i := range f.FDs {
		kb := r.take(1)
		if kb == nil {
			break
		}
		f.FDs[i].Kind = FDKind(kb[0])
		switch f.FDs[i].Kind {
		case FDFile:
			f.FDs[i].Path = r.str()
			f.FDs[i].Flags = r.u32()
			f.FDs[i].Offset = r.u32()
		case FDSocketBound:
			f.FDs[i].Port = r.u16()
		}
	}
	f.TTY = tty.Flags(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	return f, nil
}

// stackFixed is the size of a stack file less its stack bytes: magic,
// four creds, stack length, registers, PC, flags, signal actions, OldPID.
const stackFixed = 2 + 4*4 + 4 + vm.NumRegs*4 + 4 + 1 + kernel.NSIG*5 + 4

// Encode serializes the stack file into one buffer of its exact length.
func (s *StackFile) Encode() []byte {
	b := make([]byte, 0, stackFixed+len(s.Stack))
	b = binary.BigEndian.AppendUint16(b, StackMagic)
	for _, v := range []int{s.Creds.UID, s.Creds.GID, s.Creds.EUID, s.Creds.EGID} {
		b = binary.BigEndian.AppendUint32(b, uint32(v))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Stack)))
	b = append(b, s.Stack...)
	for _, v := range s.Regs.R {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	b = binary.BigEndian.AppendUint32(b, s.Regs.PC)
	var fl byte
	if s.Regs.Z {
		fl |= 1
	}
	if s.Regs.N {
		fl |= 2
	}
	b = append(b, fl)
	for _, a := range s.SigActions {
		b = append(b, byte(a.Disposition))
		b = binary.BigEndian.AppendUint32(b, a.Handler)
	}
	return binary.BigEndian.AppendUint32(b, s.OldPID)
}

// DecodeStack parses a stack file, verifying its magic number. Stack is
// not copied: it aliases raw (cap == len), so the caller passes a buffer
// it owns and does not reuse.
func DecodeStack(raw []byte) (*StackFile, error) {
	r := &reader{buf: raw}
	if r.u16() != StackMagic {
		if r.err != nil {
			return nil, r.err
		}
		return nil, ErrBadMagic
	}
	s := &StackFile{}
	s.Creds.UID = int(int32(r.u32()))
	s.Creds.GID = int(int32(r.u32()))
	s.Creds.EUID = int(int32(r.u32()))
	s.Creds.EGID = int(int32(r.u32()))
	n := int(r.u32())
	s.Stack = r.take(n)
	for i := range s.Regs.R {
		s.Regs.R[i] = r.u32()
	}
	s.Regs.PC = r.u32()
	flb := r.take(1)
	if flb != nil {
		s.Regs.Z = flb[0]&1 != 0
		s.Regs.N = flb[0]&2 != 0
	}
	for i := range s.SigActions {
		db := r.take(1)
		if db != nil {
			s.SigActions[i].Disposition = kernel.SigDisposition(db[0])
		}
		s.SigActions[i].Handler = r.u32()
	}
	s.OldPID = r.u32()
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// DecodeStackHeader reads only the credentials and stack size from a stack
// file — what rest_proc needs before calling execve (§5.2) and what
// restart is allowed to read ("this is the only information that it reads
// from this file", §4.4).
func DecodeStackHeader(raw []byte) (kernel.Creds, uint32, error) {
	r := &reader{buf: raw}
	if r.u16() != StackMagic {
		if r.err != nil {
			return kernel.Creds{}, 0, r.err
		}
		return kernel.Creds{}, 0, ErrBadMagic
	}
	var c kernel.Creds
	c.UID = int(int32(r.u32()))
	c.GID = int(int32(r.u32()))
	c.EUID = int(int32(r.u32()))
	c.EGID = int(int32(r.u32()))
	size := r.u32()
	if r.err != nil {
		return kernel.Creds{}, 0, r.err
	}
	return c, size, nil
}
