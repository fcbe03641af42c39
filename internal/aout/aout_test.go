package aout

import (
	"bytes"
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
