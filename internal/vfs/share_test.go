package vfs

import (
	"bytes"
	"runtime"
	"testing"
)

// fillNew creates name in fs's root and fills it with data.
func fillNew(t *testing.T, fs *MemFS, name string, data []byte) NodeID {
	t.Helper()
	n, err := fs.Create(fs.Root(), name, 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Fill(n, data); err != nil {
		t.Fatal(err)
	}
	return n
}

func readAll(t *testing.T, fs *MemFS, n NodeID) []byte {
	t.Helper()
	attr, err := fs.Getattr(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(n, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != attr.Size {
		t.Fatalf("read %d bytes of a %d-byte file", len(got), attr.Size)
	}
	return got
}

// aliases reports whether n's storage is buf's.
func aliases(fs *MemFS, n NodeID, buf []byte) bool {
	d := fs.nodes[n].data
	return cap(d) > 0 && &d[:1][0] == &buf[0]
}

// TestSharedFileWriteCopies: one buffer filled into files on two disks
// is kept, not copied; a write into one file copies it first, leaving the
// other file and the writer's buffer as they were.
func TestSharedFileWriteCopies(t *testing.T) {
	buf := []byte("the one shared program image")
	orig := bytes.Clone(buf)
	a, b := NewMemFS(), NewMemFS()
	na, nb := fillNew(t, a, "prog", buf), fillNew(t, b, "prog", buf)
	if !aliases(a, na, buf) || !aliases(b, nb, buf) {
		t.Fatal("Fill copied the buffer")
	}
	if _, err := a.WriteAt(na, 4, []byte("ONE")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, a, na); string(got) != "the ONE shared program image" {
		t.Fatalf("written file reads %q", got)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatalf("the writer's buffer changed to %q", buf)
	}
	if got := readAll(t, b, nb); !bytes.Equal(got, orig) {
		t.Fatalf("the other disk's file changed to %q", got)
	}
	if aliases(a, na, buf) || a.nodes[na].shared {
		t.Fatal("written file still shares the buffer")
	}
}

// TestSharedFileShrinkExtendWrite: shrinking a shared file keeps its
// buffer; extending it, by Truncate or by a write past the end, zero-fills
// the new bytes into a private copy and never touches the buffer's tail.
func TestSharedFileShrinkExtendWrite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		extend func(fs *MemFS, n NodeID) error
		want   string
	}{
		{"truncate", func(fs *MemFS, n NodeID) error { return fs.Truncate(n, 6) }, "abc\x00\x00\x00"},
		{"write", func(fs *MemFS, n NodeID) error {
			_, err := fs.WriteAt(n, 5, []byte("X"))
			return err
		}, "abc\x00\x00X"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := []byte("abcdefgh")
			fs := NewMemFS()
			n := fillNew(t, fs, "f", buf)
			must(t, fs.Truncate(n, 3))
			if got := readAll(t, fs, n); string(got) != "abc" || !fs.nodes[n].shared {
				t.Fatalf("after shrink: %q shared=%v", got, fs.nodes[n].shared)
			}
			must(t, tc.extend(fs, n))
			if got := readAll(t, fs, n); string(got) != tc.want {
				t.Fatalf("after extend: %q, want %q", got, tc.want)
			}
			if _, err := fs.WriteAt(n, 0, []byte("Z")); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, fs, n); string(got) != "Z"+tc.want[1:] {
				t.Fatalf("after write: %q", got)
			}
			if string(buf) != "abcdefgh" || aliases(fs, n, buf) {
				t.Fatalf("buffer changed to %q or still shared", buf)
			}
		})
	}
}

// TestAppendingWritesCostLinearBytes: a 64 KiB file built by 512-byte
// appending writes, as write(2) builds one, allocates under four times its
// size; reallocating at the exact new size every time costs about 4 MiB.
// The spare capacity never shows: the size is what was written, and
// regrowth after a shrink reads back zeros.
func TestAppendingWritesCostLinearBytes(t *testing.T) {
	const size, chunk = 64 << 10, 512
	fs := NewMemFS()
	n, err := fs.Create(fs.Root(), "log", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{0xff}, chunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := int64(0); off < size; off += chunk {
		if _, err := fs.WriteAt(n, off, rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4*size {
		t.Fatalf("appending %d B in %d-byte writes allocated %d B, want < %d", size, chunk, got, 4*size)
	}
	if got := readAll(t, fs, n); len(got) != size {
		t.Fatalf("file is %d bytes, want %d", len(got), size)
	}
	must(t, fs.Truncate(n, 10))
	if _, err := fs.WriteAt(n, 20, []byte("z")); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, fs, n)
	if want := append(append(bytes.Repeat([]byte{0xff}, 10), make([]byte, 10)...), 'z'); !bytes.Equal(got, want) {
		t.Fatalf("regrown file reads %x, want %x", got, want)
	}
}
