package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"procmig/internal/vm"
)

// nackReply builds a RecStoreNack reply listing pages exactly as given.
func nackReply(pages ...uint32) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(pages)))
	for _, pg := range pages {
		b = binary.BigEndian.AppendUint32(b, pg)
	}
	return b
}

// nackAsm returns an assembler whose pending misses are pages.
func nackAsm(pages []uint32) *ImageAssembler {
	a := &ImageAssembler{specMiss: map[uint32]struct{}{}}
	for _, pg := range pages {
		a.specMiss[pg] = struct{}{}
	}
	return a
}

// TestDecodeStoreNacks: the reply comes off the wire and names pages the
// source re-reads and resends, so it accepts only what EncodeStoreNacks
// emits — in-range pages, each once, ascending.
func TestDecodeStoreNacks(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
		want []uint32
		err  error
	}{
		{"empty list", nackReply(), []uint32{}, nil},
		{"sorted", nackReply(0, 3, vm.NumPages-1), []uint32{0, 3, vm.NumPages - 1}, nil},
		{"no count", nil, nil, ErrTruncated},
		{"short list", nackReply(1, 2)[:10], nil, ErrTruncated},
		{"trailing bytes", append(nackReply(1), 0), nil, ErrTruncated},
		{"past the address space", nackReply(1, vm.NumPages), nil, ErrBadGeometry},
		{"max page number", nackReply(0xffffffff), nil, ErrBadGeometry},
		{"descending", nackReply(5, 4), nil, ErrBadGeometry},
		{"duplicate", nackReply(4, 4), nil, ErrBadGeometry},
	} {
		got, err := DecodeStoreNacks(tc.raw)
		if err != tc.err {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.err)
			continue
		}
		if err == nil && !slices.Equal(got, tc.want) {
			t.Errorf("%s: pages %v, want %v", tc.name, got, tc.want)
		}
	}

	// The encoder sorts whatever order the miss set iterates in.
	pages := []uint32{900, 7, 64, 0, 513}
	raw := nackAsm(pages).EncodeStoreNacks()
	if want := nackReply(0, 7, 64, 513, 900); !bytes.Equal(raw, want) {
		t.Fatalf("EncodeStoreNacks = %x, want %x", raw, want)
	}
	if _, err := DecodeStoreNacks(raw); err != nil {
		t.Fatalf("encoder output rejected: %v", err)
	}
}

// FuzzDecodeStoreNacks throws arbitrary bytes at the store-NACK reply
// decoder. No input may panic; every accepted list is strictly ascending
// and inside the address space, and re-encodes to the bytes it came from.
func FuzzDecodeStoreNacks(f *testing.F) {
	f.Add(nackReply())
	f.Add(nackReply(0, 3, vm.NumPages-1))
	f.Add(nackReply(5, 4))
	f.Add(nackReply(4, 4))
	f.Add(nackReply(vm.NumPages))
	f.Add(nackReply(1, 2)[:10])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		pages, err := DecodeStoreNacks(raw)
		if err != nil {
			return
		}
		for i, pg := range pages {
			if pg >= vm.NumPages {
				t.Fatalf("accepted page %d past the address space: %x", pg, raw)
			}
			if i > 0 && pg <= pages[i-1] {
				t.Fatalf("accepted list not strictly ascending: %v", pages)
			}
		}
		if again := nackAsm(pages).EncodeStoreNacks(); !bytes.Equal(again, raw) {
			t.Fatalf("accepted reply does not round-trip: %x vs %x", again, raw)
		}
	})
}
