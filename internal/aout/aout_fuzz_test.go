package aout

import (
	"bytes"
	"testing"

	"procmig/internal/vm"
)

// FuzzDecodeExec: restart execs an a.out read off disk, so Decode sees
// arbitrary bytes. It must never panic, and an accepted file must decode
// to capped views that re-encode to the file's prefix.
func FuzzDecodeExec(f *testing.F) {
	f.Add((&Exec{ISA: vm.ISA2, Entry: 0x1c, Text: []byte{1, 2, 3}, Data: []byte{9, 8}}).Encode())
	f.Add((&Exec{ISA: vm.ISA1}).Encode())
	f.Add(EncodeHosted("counter"))
	f.Add([]byte("\x01\x07\x00\x01\xff\xff\xff\xf8\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := Decode(raw)
		if err != nil {
			if e != nil {
				t.Fatal("error with a non-nil Exec")
			}
			return
		}
		if cap(e.Text) != len(e.Text) || cap(e.Data) != len(e.Data) {
			t.Fatalf("cap(Text) %d len %d, cap(Data) %d len %d: want cap == len",
				cap(e.Text), len(e.Text), cap(e.Data), len(e.Data))
		}
		n := headerSize + len(e.Text) + len(e.Data)
		if got := e.Encode(); !bytes.Equal(got, raw[:n]) {
			t.Fatalf("re-encoding gives %x, want %x", got, raw[:n])
		}
	})
}

// FuzzDecodeCore: a core file is read back by undump; DecodeCore must
// never panic, and an accepted file must re-encode to its prefix.
func FuzzDecodeCore(f *testing.F) {
	c := &Core{ISA: vm.ISA1, Entry: 12, Data: []byte{1, 2, 3, 4}, Stack: []byte{5, 6}}
	c.Regs.PC = 7
	c.Regs.Z = true
	f.Add(c.Encode())
	f.Add((&Core{}).Encode())
	wrapped := (&Core{}).Encode()
	copy(wrapped[8:], "\xff\xff\xff\xfc\x00\x00\x00\x0c")
	f.Add(append(wrapped, make([]byte, 8)...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeCore(raw)
		if err != nil {
			return
		}
		n := coreFixed + len(c.Data) + len(c.Stack)
		got := c.Encode()
		// The flags byte keeps only the Z and N bits.
		want := append([]byte(nil), raw[:n]...)
		want[coreFixed-1] &= 3
		if !bytes.Equal(got, want) {
			t.Fatalf("re-encoding gives %x, want %x", got, want)
		}
	})
}
