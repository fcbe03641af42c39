package aout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"procmig/internal/vm"
)

func TestExecRoundTrip(t *testing.T) {
	e := &Exec{ISA: vm.ISA2, Entry: 0x1c, Text: []byte{1, 2, 3}, Data: []byte{9, 8}}
	got, err := Decode(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ISA != e.ISA || got.Entry != e.Entry ||
		string(got.Text) != string(e.Text) || string(got.Data) != string(e.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}
}

// TestExecEncodeExactSize: Encode allocates its output once, at its exact
// length, and the bytes are the layout the format has always had.
func TestExecEncodeExactSize(t *testing.T) {
	e := &Exec{ISA: vm.ISA2, Entry: 0x1c, Text: []byte{1, 2, 3}, Data: []byte{9, 8}}
	if got := fmt.Sprintf("%x", e.Encode()); got != "0107000200000003000000020000001c0102030908" {
		t.Fatalf("encoding changed: %s", got)
	}
	for _, n := range []int{0, 1, 1000, 70000} {
		e := &Exec{ISA: vm.ISA1, Entry: uint32(n), Text: make([]byte, n/3), Data: make([]byte, n)}
		for i := range e.Data {
			e.Data[i] = byte(i)
		}
		raw := e.Encode()
		if want := headerSize + n/3 + n; len(raw) != want || cap(raw) != want {
			t.Fatalf("n=%d: len %d cap %d, want both %d", n, len(raw), cap(raw), want)
		}
		got, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got.Entry != e.Entry || !bytes.Equal(got.Text, e.Text) || !bytes.Equal(got.Data, e.Data) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	raw := (&Exec{ISA: vm.ISA1}).Encode()
	raw[0] ^= 0xff
	if _, err := Decode(raw); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	raw := (&Exec{ISA: vm.ISA1, Text: make([]byte, 100)}).Encode()
	for _, n := range []int{0, 5, headerSize - 1, headerSize + 50} {
		if _, err := Decode(raw[:n]); err != ErrTruncated {
			t.Fatalf("len %d: err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestHostedStub(t *testing.T) {
	raw := EncodeHosted("dumpproc")
	if got := fmt.Sprintf("%x", raw); got != "0105000864756d7070726f63" || cap(raw) != len(raw) {
		t.Fatalf("stub %s (cap %d), want the exact-size magic, length and name", got, cap(raw))
	}
	if !IsHosted(raw) {
		t.Fatal("IsHosted = false")
	}
	name, err := DecodeHosted(raw)
	if err != nil || name != "dumpproc" {
		t.Fatalf("name = %q, err = %v", name, err)
	}
	if IsHosted((&Exec{}).Encode()) {
		t.Fatal("VM executable misdetected as hosted")
	}
	if _, err := DecodeHosted((&Exec{}).Encode()); err != ErrNotHosted {
		t.Fatalf("err = %v, want ErrNotHosted", err)
	}
}

func TestCoreRoundTrip(t *testing.T) {
	c := &Core{
		ISA:   vm.ISA1,
		Entry: 12,
		Data:  []byte{1, 2, 3, 4},
		Stack: []byte{5, 6},
	}
	c.Regs.R[0] = 42
	c.Regs.R[vm.RegSP] = vm.StackTop - 2
	c.Regs.PC = 7
	c.Regs.Z = true
	got, err := DecodeCore(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Regs != c.Regs || string(got.Data) != string(c.Data) ||
		string(got.Stack) != string(c.Stack) || got.Entry != c.Entry {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
	}
}

func TestUndump(t *testing.T) {
	exe := &Exec{ISA: vm.ISA1, Entry: 3, Text: []byte{1, 2, 3}, Data: []byte{0, 0}}
	core := &Core{ISA: vm.ISA1, Data: []byte{7, 9}, Stack: []byte{1}}
	got, err := Undump(exe, core)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "\x07\x09" {
		t.Fatalf("data = %v", got.Data)
	}
	if string(got.Text) != string(exe.Text) || got.Entry != exe.Entry {
		t.Fatal("text/entry not preserved")
	}
}

func TestUndumpSizeMismatch(t *testing.T) {
	exe := &Exec{Data: []byte{0}}
	core := &Core{Data: []byte{1, 2}}
	if _, err := Undump(exe, core); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestCoreRoundTripProperty(t *testing.T) {
	f := func(data, stack []byte, r0, pc uint32, z, n bool) bool {
		c := &Core{ISA: vm.ISA2, Data: data, Stack: stack}
		c.Regs.R[0] = r0
		c.Regs.PC = pc
		c.Regs.Z = z
		c.Regs.N = n
		got, err := DecodeCore(c.Encode())
		if err != nil {
			return false
		}
		return got.Regs == c.Regs && string(got.Data) == string(data) && string(got.Stack) == string(stack)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsWrappedSizes: the section sizes are untrusted. Two
// 32-bit sizes whose sum wraps past 2^32 to the file's own length must be
// refused as truncated, not sliced.
func TestDecodeRejectsWrappedSizes(t *testing.T) {
	exe := make([]byte, headerSize+8)
	binary.BigEndian.PutUint16(exe[0:], OMAGIC)
	binary.BigEndian.PutUint32(exe[4:], 0xFFFFFFF8) // text
	binary.BigEndian.PutUint32(exe[8:], 0x10)       // data: 16+text+data wraps to 24
	if _, err := Decode(exe); err != ErrTruncated {
		t.Fatalf("wrapped a.out sizes: err = %v, want ErrTruncated", err)
	}

	core := make([]byte, coreFixed+8)
	binary.BigEndian.PutUint16(core[0:], CoreMagic)
	binary.BigEndian.PutUint32(core[8:], 0xFFFFFFFC) // data
	binary.BigEndian.PutUint32(core[12:], 0xC)       // stack: 57+data+stack wraps to 65
	if _, err := DecodeCore(core); err != ErrTruncated {
		t.Fatalf("wrapped core sizes: err = %v, want ErrTruncated", err)
	}
}

// TestDecodeAliasesRaw: Decode hands back Text and Data as views of raw,
// each capped at its own end, so growing one copies instead of writing
// over the other or over the bytes after it.
func TestDecodeAliasesRaw(t *testing.T) {
	raw := append((&Exec{ISA: vm.ISA1, Text: []byte{1, 2, 3}, Data: []byte{4, 5}}).Encode(), 0xEE)
	e, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cap(e.Text) != len(e.Text) || cap(e.Data) != len(e.Data) {
		t.Fatalf("cap(Text) %d len %d, cap(Data) %d len %d: want cap == len",
			cap(e.Text), len(e.Text), cap(e.Data), len(e.Data))
	}
	if &e.Text[0] != &raw[headerSize] || &e.Data[0] != &raw[headerSize+3] {
		t.Fatal("Text and Data are not views of raw")
	}
	_ = append(e.Text, 0xAA, 0xAA)
	if string(e.Data) != "\x04\x05" {
		t.Fatalf("appending to Text changed Data to %x", e.Data)
	}
	_ = append(e.Data, 0xBB)
	if string(e.Text) != "\x01\x02\x03" || raw[len(raw)-1] != 0xEE {
		t.Fatalf("appending to Data changed Text to %x or the byte after it to %x", e.Text, raw[len(raw)-1])
	}
}

// TestDecodeAllocatesOnlyTheExec: Decode copies no section; its one
// allocation is the *Exec it returns.
func TestDecodeAllocatesOnlyTheExec(t *testing.T) {
	raw := (&Exec{ISA: vm.ISA1, Text: make([]byte, 1000), Data: make([]byte, 64<<10)}).Encode()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(raw); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Decode allocates %v objects, want 1 (the *Exec)", n)
	}
}

// TestLayoutLeavesDataZeroAtTheEnd: Layout's data region is the zeroed
// tail of the file, and filling it yields exactly Encode's bytes.
func TestLayoutLeavesDataZeroAtTheEnd(t *testing.T) {
	e := &Exec{ISA: vm.ISA2, Entry: 0x1c, Text: []byte{1, 2, 3}, Data: []byte{9, 8, 7}}
	raw, data := Layout(e.ISA, e.Entry, e.Text, len(e.Data))
	if len(data) != 3 || !bytes.Equal(data, make([]byte, 3)) || &data[0] != &raw[headerSize+3] || cap(raw) != len(raw) {
		t.Fatalf("data region %x (len %d) is not the zeroed tail of the %d-byte file", data, len(data), len(raw))
	}
	copy(data, e.Data)
	if !bytes.Equal(raw, e.Encode()) {
		t.Fatal("a filled layout differs from Encode")
	}
}
