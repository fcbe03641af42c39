package core_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"procmig/internal/core"
	"procmig/internal/kernel"
	"procmig/internal/tty"
)

// Robustness tests for the dump file decoders: corrupt or truncated input
// must come back as an error, never a panic — restart reads these files
// off a remote /usr/tmp that anyone may scribble into.

func sampleFiles() *core.FilesFile {
	ff := &core.FilesFile{Host: "brick", CWD: "/n/brick/home", TTY: tty.Raw}
	ff.FDs[0] = core.FDEntry{Kind: core.FDFile, Path: "/dev/tty", Flags: 2}
	ff.FDs[2] = core.FDEntry{Kind: core.FDSocket}
	ff.FDs[4] = core.FDEntry{Kind: core.FDSocketBound, Port: 1234}
	ff.FDs[7] = core.FDEntry{Kind: core.FDFile, Path: "/n/brick/tmp/x", Flags: 1, Offset: 99}
	return ff
}

func sampleStack() *core.StackFile {
	sf := &core.StackFile{
		Creds:  kernel.Creds{UID: 5, GID: 6, EUID: 5, EGID: 6},
		Stack:  []byte{9, 8, 7, 6, 5},
		OldPID: 31,
	}
	sf.Regs.PC = 0x44
	sf.SigActions[kernel.SIGUSR2] = kernel.SigAction{Disposition: kernel.SigIgnore}
	return sf
}

func TestBoundSocketEntryRoundTrip(t *testing.T) {
	ff := sampleFiles()
	got, err := core.DecodeFiles(ff.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ff {
		t.Fatalf("files round trip with FDSocketBound:\n got %+v\nwant %+v", got, ff)
	}
	if got.FDs[4].Port != 1234 {
		t.Fatalf("bound port = %d, want 1234", got.FDs[4].Port)
	}
}

func TestDecodeFilesTruncation(t *testing.T) {
	raw := sampleFiles().Encode()
	for n := 0; n < len(raw); n++ {
		if _, err := core.DecodeFiles(raw[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(raw))
		}
	}
}

func TestDecodeStackTruncation(t *testing.T) {
	raw := sampleStack().Encode()
	for n := 0; n < len(raw); n++ {
		if _, err := core.DecodeStack(raw[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(raw))
		}
		if n < 22 { // magic + creds + stack length: the header
			if _, _, err := core.DecodeStackHeader(raw[:n]); err == nil {
				t.Fatalf("header truncation at %d bytes accepted", n)
			}
		}
	}
}

func FuzzDecodeFiles(f *testing.F) {
	raw := sampleFiles().Encode()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		ff, err := core.DecodeFiles(data)
		if err != nil {
			return
		}
		// Accepted input must survive re-encoding.
		if _, err := core.DecodeFiles(ff.Encode()); err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
	})
}

// TestStackEncodeExactSize: Encode allocates the stack file once, at its
// exact length, with the bytes it has always had (the digest pins them),
// and DecodeStack reads every field back.
func TestStackEncodeExactSize(t *testing.T) {
	sf := sampleStack()
	sf.Creds.EGID = -2
	sf.Regs.Z = true
	for i := range sf.Regs.R {
		sf.Regs.R[i] = uint32(i * 0x01010101)
	}
	for i := range sf.SigActions {
		sf.SigActions[i] = kernel.SigAction{Disposition: kernel.SigDisposition(i % 3), Handler: uint32(i * 100)}
	}
	raw := sf.Encode()
	if len(raw) != 232 || cap(raw) != len(raw) {
		t.Fatalf("len %d cap %d, want both 232", len(raw), cap(raw))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != "35e6df03c0ac93ff6dbf9e34945d2735e734d139627e31f8ca3bc27bdb732f81" {
		t.Fatalf("encoding changed: sha256 %s", got)
	}
	back, err := core.DecodeStack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sf) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, sf)
	}
	sf.Stack = make([]byte, 5000)
	if raw := sf.Encode(); cap(raw) != 232-5+5000 || len(raw) != cap(raw) {
		t.Fatalf("5000-byte stack: len %d cap %d", len(raw), cap(raw))
	}
}

// TestDecodeStackAliasesRaw: DecodeStack does not copy the stack; Stack
// is a view of raw capped at its own end, and the *StackFile is the one
// allocation. rest_proc copies the view into the stack execve allocated.
func TestDecodeStackAliasesRaw(t *testing.T) {
	raw := sampleStack().Encode()
	sf, err := core.DecodeStack(raw)
	if err != nil {
		t.Fatal(err)
	}
	const at = 2 + 4*4 + 4 // magic, creds, stack length
	if len(sf.Stack) == 0 || &sf.Stack[0] != &raw[at] || cap(sf.Stack) != len(sf.Stack) {
		t.Fatalf("Stack (len %d cap %d) is not a capped view of raw", len(sf.Stack), cap(sf.Stack))
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := core.DecodeStack(raw); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("DecodeStack allocates %v objects, want 1 (the *StackFile)", n)
	}
}

func FuzzDecodeStack(f *testing.F) {
	raw := sampleStack().Encode()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := core.DecodeStack(data)
		if err != nil {
			return
		}
		if cap(sf.Stack) != len(sf.Stack) {
			t.Fatalf("Stack len %d cap %d: want cap == len", len(sf.Stack), cap(sf.Stack))
		}
		if _, err := core.DecodeStack(sf.Encode()); err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if _, _, err := core.DecodeStackHeader(data); err != nil {
			t.Fatalf("full decode succeeded but header decode failed: %v", err)
		}
	})
}
