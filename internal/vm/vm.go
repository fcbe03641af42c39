package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// Memory layout constants. Text begins at address 0; the data segment
// follows at the next 4-byte boundary; the stack occupies the top of the
// 16 MiB address space and grows downward, up to MaxStack bytes.
const (
	StackTop = 0x0100_0000 // one past the highest stack address
	MaxStack = 1 << 16     // stack growth limit (64 KiB)
)

// Dirty-page tracking granularity: 1 KiB pages over the flat address
// space. Page numbers are absolute (addr >> PageShift) — the data segment
// is only word-aligned, so a page may straddle the text/data boundary.
const (
	PageShift = 10
	PageSize  = 1 << PageShift

	// NumPages covers the whole 16 MiB address space: every legal write
	// (seg() rejects anything at or above StackTop) lands in a page below
	// this, so the dirty bitmap needs no bounds checks.
	NumPages   = StackTop >> PageShift
	dirtyWords = NumPages / 64
)

// FaultKind classifies a processor fault.
type FaultKind int

const (
	FaultNone       FaultKind = iota
	FaultMemory               // access outside text/data/stack, or write to text
	FaultIllegal              // undefined opcode
	FaultISA                  // instruction above the machine's ISA level
	FaultDivide               // division by zero
	FaultStackLimit           // stack grew past MaxStack
)

func (k FaultKind) String() string {
	switch k {
	case FaultMemory:
		return "memory fault"
	case FaultIllegal:
		return "illegal instruction"
	case FaultISA:
		return "instruction not in machine ISA"
	case FaultDivide:
		return "divide by zero"
	case FaultStackLimit:
		return "stack overflow"
	default:
		return "no fault"
	}
}

// Fault records the details of a processor fault.
type Fault struct {
	Kind FaultKind
	PC   uint32 // PC of the faulting instruction
	Addr uint32 // offending address for memory faults
	Op   Opcode
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: %s at pc=%#x (op=%d, addr=%#x)", f.Kind, f.PC, f.Op, f.Addr)
}

// StepResult reports why the interpreter stopped after a step.
type StepResult int

const (
	StepOK      StepResult = iota // instruction retired normally
	StepSyscall                   // SYS executed; number in CPU.SyscallNum
	StepHalt                      // HALT executed
	StepFault                     // fault; details in CPU.Fault
)

// Regs is the register snapshot dumped into the stack file and restored by
// rest_proc. R[8] is the stack pointer.
type Regs struct {
	R  [NumRegs]uint32
	PC uint32
	Z  bool
	N  bool
}

// CPU is one executing process image.
type CPU struct {
	Regs
	ISA  Level // level of the machine executing the image
	Text []byte
	Data []byte
	// Stack holds the currently materialized stack bytes; Stack[i]
	// corresponds to address StackTop-len(Stack)+i. It grows on demand.
	Stack []byte

	Fault      *Fault
	SyscallNum byte

	dataBase uint32
	// dirty is a fixed-size bitmap over the address space's pages, one bit
	// per page written since the last ClearDirty. nil means tracking is off
	// (the common case: the write barrier is a single nil check); when on,
	// marking a page is a shift+or into the word that holds its bit.
	dirty []uint64
}

// DataBase reports the address of the first data-segment byte for a text
// segment of n bytes.
func DataBase(textLen int) uint32 { return uint32((textLen + 3) &^ 3) }

// New builds a CPU from text and data images. The data slice is used
// directly (not copied); the entry point is left at 0 and SP at StackTop.
func New(text, data []byte, isa Level) *CPU {
	c := &CPU{Text: text, Data: data, ISA: isa, dataBase: DataBase(len(text))}
	c.R[RegSP] = StackTop
	return c
}

// SP returns the stack pointer.
func (c *CPU) SP() uint32 { return c.R[RegSP] }

// StackImage returns a copy of the live stack: the bytes from SP up to
// StackTop. This is exactly what SIGDUMP writes to the stack file.
func (c *CPU) StackImage() []byte {
	sp := c.R[RegSP]
	if sp >= StackTop {
		return nil
	}
	size := StackTop - sp
	img := make([]byte, size)
	floor := uint32(StackTop - len(c.Stack))
	for i := range img {
		addr := sp + uint32(i)
		if addr >= floor {
			img[i] = c.Stack[addr-floor]
		}
	}
	return img
}

// SetStackImage installs img as the stack contents ending at StackTop and
// points SP at its first byte. Like New's data, img is used directly (not
// copied); stack growth moves the stack to a new buffer.
func (c *CPU) SetStackImage(img []byte) {
	c.Stack = img
	c.R[RegSP] = StackTop - uint32(len(img))
}

// SetDirtyTracking enables or disables the 1 KiB-page write barrier.
// Enabling starts with an empty dirty set; disabling drops it.
func (c *CPU) SetDirtyTracking(on bool) {
	if on {
		if c.dirty == nil {
			c.dirty = make([]uint64, dirtyWords)
		}
	} else {
		c.dirty = nil
	}
}

// DirtyTracking reports whether the write barrier is enabled.
func (c *CPU) DirtyTracking() bool { return c.dirty != nil }

// markDirty records the pages touched by a write of n bytes at addr.
func (c *CPU) markDirty(addr, n uint32) {
	if c.dirty == nil {
		return
	}
	pg := addr >> PageShift
	c.dirty[pg>>6] |= 1 << (pg & 63)
	if end := (addr + n - 1) >> PageShift; end != pg {
		c.dirty[end>>6] |= 1 << (end & 63)
	}
}

// DirtyCount returns how many pages are currently marked dirty, without
// materializing the page list.
func (c *CPU) DirtyCount() int {
	n := 0
	for _, w := range c.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// DirtyPages returns the sorted page numbers written since the last
// ClearDirty (nil when tracking is off or nothing is dirty).
func (c *CPU) DirtyPages() []uint32 { return c.AppendDirtyPages(nil) }

// AppendDirtyPages appends the dirty page numbers, in ascending order, to
// dst and returns the extended slice — the bitmap iterates in address
// order, so no sort is needed, and callers can reuse one scratch slice
// across rounds.
func (c *CPU) AppendDirtyPages(dst []uint32) []uint32 {
	for i, w := range c.dirty {
		base := uint32(i) * 64
		for w != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ClearDirty empties the dirty set, keeping tracking enabled. Zeroing the
// word array compiles to a memclr: O(words), not O(dirty pages).
func (c *CPU) ClearDirty() {
	for i := range c.dirty {
		c.dirty[i] = 0
	}
}

// copyPageRange copies into dst (one page starting at pageBase) the bytes
// of seg (based at segBase) that fall inside the page.
func copyPageRange(dst []byte, pageBase uint32, seg []byte, segBase uint32) {
	if len(seg) == 0 {
		return
	}
	lo, hi := pageBase, pageBase+uint32(len(dst))
	slo, shi := segBase, segBase+uint32(len(seg))
	if slo > lo {
		lo = slo
	}
	if shi < hi {
		hi = shi
	}
	if lo >= hi {
		return
	}
	copy(dst[lo-pageBase:hi-pageBase], seg[lo-slo:hi-slo])
}

// PageData returns the PageSize bytes of page pg as seen by the process:
// data and materialized stack contents where the page overlaps them,
// zeros elsewhere (unmaterialized stack reads as zero anyway).
func (c *CPU) PageData(pg uint32) []byte {
	out := make([]byte, PageSize)
	c.PageDataInto(pg, out)
	return out
}

// PageDataInto fills out (which must be PageSize bytes) with the contents
// of page pg, like PageData but without allocating — the streaming send
// path reads every page of every round through one scratch buffer.
func (c *CPU) PageDataInto(pg uint32, out []byte) {
	for i := range out {
		out[i] = 0
	}
	base := pg << PageShift
	copyPageRange(out, base, c.Data, c.dataBase)
	copyPageRange(out, base, c.Stack, uint32(StackTop-len(c.Stack)))
}

// HashPage is a cheap 64-bit content hash over a page (or any byte
// slice): 8 bytes at a time through a multiply-rotate mix, murmur-style.
// It is a fixed pure function — the streaming wire format embeds its
// values, so it must never change behind a running cluster's back.
func HashPage(p []byte) uint64 {
	const (
		m1 = 0x87c37b91114253d5
		m2 = 0x4cf5ad432745937f
	)
	h := uint64(len(p)) * 0x9e3779b97f4a7c15
	for ; len(p) >= 8; p = p[8:] {
		k := binary.BigEndian.Uint64(p)
		k *= m1
		k = k<<31 | k>>33
		k *= m2
		h ^= k
		h = h<<27 | h>>37
		h = h*5 + 0x52dce729
	}
	if len(p) > 0 {
		var k uint64
		for i, b := range p {
			k |= uint64(b) << (8 * uint(i))
		}
		k *= m1
		k = k<<31 | k>>33
		k *= m2
		h ^= k
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// IsZeroPage reports whether p is all zero bytes, 8 at a time.
func IsZeroPage(p []byte) bool {
	for ; len(p) >= 8; p = p[8:] {
		if binary.BigEndian.Uint64(p) != 0 {
			return false
		}
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// ImagePages returns the sorted page numbers covering the data segment
// and the materialized stack — every page a full image transfer must ship.
func (c *CPU) ImagePages() []uint32 {
	seen := map[uint32]struct{}{}
	addRange := func(base uint32, n int) {
		if n == 0 {
			return
		}
		for pg := base >> PageShift; pg <= (base+uint32(n)-1)>>PageShift; pg++ {
			seen[pg] = struct{}{}
		}
	}
	addRange(c.dataBase, len(c.Data))
	addRange(uint32(StackTop-len(c.Stack)), len(c.Stack))
	out := make([]uint32, 0, len(seen))
	for pg := range seen {
		out = append(out, pg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot returns the register state.
func (c *CPU) Snapshot() Regs { return c.Regs }

// Restore installs a register state.
func (c *CPU) Restore(r Regs) { c.Regs = r }

func (c *CPU) fault(kind FaultKind, pc, addr uint32, op Opcode) StepResult {
	c.Fault = &Fault{Kind: kind, PC: pc, Addr: addr, Op: op}
	return StepFault
}

// seg returns the backing slice and base address for addr, growing the
// stack if addr falls in the stack growth region. ok is false on fault.
func (c *CPU) seg(addr uint32, n uint32) (buf []byte, off uint32, ok bool) {
	if n == 0 {
		return nil, 0, true
	}
	end := addr + n
	if end < addr { // wrap
		return nil, 0, false
	}
	if end <= uint32(len(c.Text)) {
		return c.Text, addr, true
	}
	if addr >= c.dataBase && end <= c.dataBase+uint32(len(c.Data)) {
		return c.Data, addr - c.dataBase, true
	}
	if addr >= StackTop-MaxStack && end <= StackTop {
		floor := uint32(StackTop - len(c.Stack))
		if addr < floor {
			grow := floor - addr
			c.Stack = append(make([]byte, grow), c.Stack...)
			floor = addr
		}
		return c.Stack, addr - floor, true
	}
	return nil, 0, false
}

// ReadU32 reads a big-endian 32-bit word from memory.
func (c *CPU) ReadU32(addr uint32) (uint32, bool) {
	buf, off, ok := c.seg(addr, 4)
	if !ok {
		return 0, false
	}
	return binary.BigEndian.Uint32(buf[off : off+4]), true
}

// WriteU32 writes a big-endian 32-bit word. Writes into text fault.
func (c *CPU) WriteU32(addr uint32, v uint32) bool {
	if addr < uint32(len(c.Text)) {
		return false
	}
	buf, off, ok := c.seg(addr, 4)
	if !ok {
		return false
	}
	binary.BigEndian.PutUint32(buf[off:off+4], v)
	c.markDirty(addr, 4)
	return true
}

// ReadByte reads one byte of memory.
func (c *CPU) ReadByteAt(addr uint32) (byte, bool) {
	buf, off, ok := c.seg(addr, 1)
	if !ok {
		return 0, false
	}
	return buf[off], true
}

// WriteByte writes one byte of memory. Writes into text fault.
func (c *CPU) WriteByteAt(addr uint32, v byte) bool {
	if addr < uint32(len(c.Text)) {
		return false
	}
	buf, off, ok := c.seg(addr, 1)
	if !ok {
		return false
	}
	buf[off] = v
	c.markDirty(addr, 1)
	return true
}

// ReadBytes copies n bytes starting at addr (used by the kernel to read
// syscall buffers out of process memory).
func (c *CPU) ReadBytes(addr, n uint32) ([]byte, bool) {
	out := make([]byte, n)
	for i := uint32(0); i < n; i++ {
		b, ok := c.ReadByteAt(addr + i)
		if !ok {
			return nil, false
		}
		out[i] = b
	}
	return out, true
}

// WriteBytes copies data into process memory at addr.
func (c *CPU) WriteBytes(addr uint32, data []byte) bool {
	for i, b := range data {
		if !c.WriteByteAt(addr+uint32(i), b) {
			return false
		}
	}
	return true
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (c *CPU) ReadCString(addr uint32, max int) (string, bool) {
	var out []byte
	for i := 0; i < max; i++ {
		b, ok := c.ReadByteAt(addr + uint32(i))
		if !ok {
			return "", false
		}
		if b == 0 {
			return string(out), true
		}
		out = append(out, b)
	}
	return "", false
}

func (c *CPU) setFlags(v uint32) {
	c.Z = v == 0
	c.N = int32(v) < 0
}

// Step executes one instruction. On StepSyscall the PC already points past
// the SYS instruction; the kernel places the result in r0 and the errno in
// r1 before resuming.
func (c *CPU) Step() StepResult {
	pc := c.PC
	if pc >= uint32(len(c.Text)) {
		return c.fault(FaultMemory, pc, pc, 0)
	}
	op := Opcode(c.Text[pc])
	if int(op) >= int(numOpcodes) || !Instrs[op].Defined {
		return c.fault(FaultIllegal, pc, 0, op)
	}
	info := &Instrs[op]
	if info.MinISA > c.ISA {
		return c.fault(FaultISA, pc, 0, op)
	}
	opEnd := pc + 1 + uint32(info.Kind.Size())
	if opEnd > uint32(len(c.Text)) {
		return c.fault(FaultMemory, pc, opEnd, op)
	}
	operands := c.Text[pc+1 : opEnd]

	var ra, rb byte
	var imm uint32
	switch info.Kind {
	case OpReg:
		ra = operands[0]
	case OpRegReg:
		ra, rb = operands[0], operands[1]
	case OpRegImm:
		ra = operands[0]
		imm = binary.BigEndian.Uint32(operands[1:5])
	case OpImm32:
		imm = binary.BigEndian.Uint32(operands[0:4])
	case OpImm8:
		ra = operands[0]
	}
	if info.Kind == OpReg || info.Kind == OpRegReg || info.Kind == OpRegImm {
		if int(ra) >= NumRegs {
			return c.fault(FaultIllegal, pc, 0, op)
		}
	}
	if info.Kind == OpRegReg && int(rb) >= NumRegs {
		return c.fault(FaultIllegal, pc, 0, op)
	}

	next := opEnd
	switch op {
	case NOP:
	case HALT:
		c.PC = next
		return StepHalt
	case MOVI:
		c.R[ra] = imm
	case MOV:
		c.R[ra] = c.R[rb]
	case LD:
		v, ok := c.ReadU32(imm)
		if !ok {
			return c.fault(FaultMemory, pc, imm, op)
		}
		c.R[ra] = v
	case ST:
		if !c.WriteU32(imm, c.R[ra]) {
			return c.fault(FaultMemory, pc, imm, op)
		}
	case LDR:
		v, ok := c.ReadU32(c.R[rb])
		if !ok {
			return c.fault(FaultMemory, pc, c.R[rb], op)
		}
		c.R[ra] = v
	case STR:
		if !c.WriteU32(c.R[ra], c.R[rb]) {
			return c.fault(FaultMemory, pc, c.R[ra], op)
		}
	case LDB:
		v, ok := c.ReadByteAt(c.R[rb])
		if !ok {
			return c.fault(FaultMemory, pc, c.R[rb], op)
		}
		c.R[ra] = uint32(v)
	case STB:
		if !c.WriteByteAt(c.R[ra], byte(c.R[rb])) {
			return c.fault(FaultMemory, pc, c.R[ra], op)
		}
	case ADD:
		c.R[ra] += c.R[rb]
		c.setFlags(c.R[ra])
	case ADDI:
		c.R[ra] += imm
		c.setFlags(c.R[ra])
	case SUB:
		c.R[ra] -= c.R[rb]
		c.setFlags(c.R[ra])
	case SUBI:
		c.R[ra] -= imm
		c.setFlags(c.R[ra])
	case MUL, MULL:
		c.R[ra] *= c.R[rb]
		c.setFlags(c.R[ra])
	case DIV, DIVL:
		if c.R[rb] == 0 {
			return c.fault(FaultDivide, pc, 0, op)
		}
		c.R[ra] = uint32(int32(c.R[ra]) / int32(c.R[rb]))
		c.setFlags(c.R[ra])
	case MOD:
		if c.R[rb] == 0 {
			return c.fault(FaultDivide, pc, 0, op)
		}
		c.R[ra] = uint32(int32(c.R[ra]) % int32(c.R[rb]))
		c.setFlags(c.R[ra])
	case AND:
		c.R[ra] &= c.R[rb]
		c.setFlags(c.R[ra])
	case OR:
		c.R[ra] |= c.R[rb]
		c.setFlags(c.R[ra])
	case XOR:
		c.R[ra] ^= c.R[rb]
		c.setFlags(c.R[ra])
	case SHL:
		c.R[ra] <<= c.R[rb] & 31
		c.setFlags(c.R[ra])
	case SHR:
		c.R[ra] >>= c.R[rb] & 31
		c.setFlags(c.R[ra])
	case CMP:
		c.setFlags(c.R[ra] - c.R[rb])
	case CMPI:
		c.setFlags(c.R[ra] - imm)
	case JMP:
		next = imm
	case JEQ:
		if c.Z {
			next = imm
		}
	case JNE:
		if !c.Z {
			next = imm
		}
	case JLT:
		if c.N && !c.Z {
			next = imm
		}
	case JGT:
		if !c.N && !c.Z {
			next = imm
		}
	case JLE:
		if c.N || c.Z {
			next = imm
		}
	case JGE:
		if !c.N {
			next = imm
		}
	case PUSH:
		sp := c.R[RegSP] - 4
		if StackTop-sp > MaxStack {
			return c.fault(FaultStackLimit, pc, sp, op)
		}
		if !c.WriteU32(sp, c.R[ra]) {
			return c.fault(FaultMemory, pc, sp, op)
		}
		c.R[RegSP] = sp
	case POP:
		sp := c.R[RegSP]
		v, ok := c.ReadU32(sp)
		if !ok {
			return c.fault(FaultMemory, pc, sp, op)
		}
		c.R[ra] = v
		c.R[RegSP] = sp + 4
	case CALL:
		sp := c.R[RegSP] - 4
		if StackTop-sp > MaxStack {
			return c.fault(FaultStackLimit, pc, sp, op)
		}
		if !c.WriteU32(sp, next) {
			return c.fault(FaultMemory, pc, sp, op)
		}
		c.R[RegSP] = sp
		next = imm
	case RET:
		sp := c.R[RegSP]
		v, ok := c.ReadU32(sp)
		if !ok {
			return c.fault(FaultMemory, pc, sp, op)
		}
		c.R[RegSP] = sp + 4
		next = v
	case BSWAP:
		v := c.R[ra]
		c.R[ra] = v<<24 | (v&0xff00)<<8 | (v>>8)&0xff00 | v>>24
		c.setFlags(c.R[ra])
	case FFS:
		v := c.R[ra]
		r := uint32(0)
		for i := uint32(0); i < 32; i++ {
			if v&(1<<i) != 0 {
				r = i + 1
				break
			}
		}
		c.R[ra] = r
		c.setFlags(r)
	case SYS:
		c.SyscallNum = ra
		c.PC = next
		return StepSyscall
	}
	c.PC = next
	return StepOK
}

// MinISA scans a text segment and reports the highest ISA level any of its
// instructions requires. Scanning assumes the text is well-formed (as
// produced by the assembler); undecodable bytes end the scan.
func MinISA(text []byte) Level {
	level := ISA1
	for pc := 0; pc < len(text); {
		op := Opcode(text[pc])
		if int(op) >= int(numOpcodes) || !Instrs[op].Defined {
			break
		}
		if Instrs[op].MinISA > level {
			level = Instrs[op].MinISA
		}
		pc += 1 + Instrs[op].Kind.Size()
	}
	return level
}
