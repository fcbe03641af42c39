package nfs

import (
	"fmt"
	"testing"

	"procmig/internal/errno"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/vfs"
)

// pair builds a server exporting a fresh MemFS and a client on another host.
func pair(t *testing.T) (*sim.Engine, *vfs.MemFS, *Client) {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.New(eng, 500*sim.Microsecond, sim.Microsecond)
	server := net.AddHost("server")
	client := net.AddHost("client")
	fs := vfs.NewMemFS()
	if err := Serve(server, fs, nil, ServerCosts{}); err != nil {
		t.Fatal(err)
	}
	return eng, fs, NewClient(client, "server")
}

func TestRemoteReadWrite(t *testing.T) {
	_, _, c := pair(t)
	ns := vfs.NewNamespace(c)
	if err := ns.MkdirAll("/usr/tmp", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ns.WriteFile("/usr/tmp/f", []byte("over the wire"), 0o644, 10, 20); err != nil {
		t.Fatal(err)
	}
	data, err := ns.ReadFile("/usr/tmp/f")
	if err != nil || string(data) != "over the wire" {
		t.Fatalf("data = %q err = %v", data, err)
	}
	attr, err := ns.Stat("/usr/tmp/f")
	if err != nil || attr.UID != 10 || attr.GID != 20 {
		t.Fatalf("attr = %+v err = %v", attr, err)
	}
}

func TestRemoteSymlinkResolvedOnClient(t *testing.T) {
	_, serverFS, c := pair(t)
	// Server disk: /data/real plus /link -> /data/real.
	sns := vfs.NewNamespace(serverFS)
	if err := sns.MkdirAll("/data", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sns.WriteFile("/data/real", []byte("R"), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := sns.Symlink("/link", "/data/real", 0, 0); err != nil {
		t.Fatal(err)
	}

	// Client mounts the export at /n/server. The absolute link target is
	// resolved against the export's own root (the paper's semantics).
	local := vfs.NewMemFS()
	ns := vfs.NewNamespace(local)
	if err := ns.MkdirAll("/n/server", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount("/n/server", c); err != nil {
		t.Fatal(err)
	}
	data, err := ns.ReadFile("/n/server/link")
	if err != nil || string(data) != "R" {
		t.Fatalf("data = %q err = %v", data, err)
	}
	p, err := ns.Resolve("/n/server/link", true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Canon != "/n/server/data/real" {
		t.Fatalf("canon = %q", p.Canon)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, _, c := pair(t)
	if _, _, err := c.Lookup(c.Root(), "missing"); errno.Of(err) != errno.ENOENT {
		t.Fatalf("err = %v, want ENOENT", err)
	}
	if _, err := c.Getattr(999); errno.Of(err) != errno.ESTALE {
		t.Fatalf("err = %v, want ESTALE", err)
	}
}

func TestRemoteRenameAndRemove(t *testing.T) {
	_, _, c := pair(t)
	root := c.Root()
	n, err := c.Create(root, "a", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(n, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(root, "a", root, "b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(root, "a"); errno.Of(err) != errno.ENOENT {
		t.Fatalf("lookup a: %v", err)
	}
	if err := c.Remove(root, "b"); err != nil {
		t.Fatal(err)
	}
	ents, err := c.ReadDir(root)
	if err != nil || len(ents) != 0 {
		t.Fatalf("ents = %v err = %v", ents, err)
	}
}

func TestServerDownGivesHostDown(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	server := net.AddHost("server")
	client := net.AddHost("client")
	fs := vfs.NewMemFS()
	if err := Serve(server, fs, nil, ServerCosts{}); err != nil {
		t.Fatal(err)
	}
	c := NewClient(client, "server")
	if _, err := c.Getattr(c.Root()); err != nil {
		t.Fatal(err)
	}
	server.SetDown(true)
	if _, err := c.Getattr(1); errno.Of(err) != errno.EHOSTDOWN {
		t.Fatalf("err = %v, want EHOSTDOWN", err)
	}
}

func TestNetworkCostCharged(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, sim.Millisecond, 0)
	server := net.AddHost("server")
	client := net.AddHost("client")
	fs := vfs.NewMemFS()
	if err := Serve(server, fs, nil, ServerCosts{}); err != nil {
		t.Fatal(err)
	}
	c := NewClient(client, "server")
	c.Root() // prefetch outside the actor (free)
	var elapsed sim.Time
	eng.Go("op", func(tk *sim.Task) {
		if _, err := c.Getattr(1); err != nil {
			t.Error(err)
		}
		elapsed = tk.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != sim.Time(2*sim.Millisecond) {
		t.Fatalf("elapsed = %d, want one round trip (2ms)", elapsed)
	}
}

func TestServerCostsCharged(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, 0, 0)
	server := net.AddHost("server")
	client := net.AddHost("client")
	fs := vfs.NewMemFS()
	cpu := sim.NewResource(10*sim.Millisecond, 0)
	costs := ServerCosts{OpCPU: sim.Millisecond, DiskLatency: 5 * sim.Millisecond, DiskPerByte: 0}
	if err := Serve(server, fs, cpu, costs); err != nil {
		t.Fatal(err)
	}
	c := NewClient(client, "server")
	root := c.Root()
	n, err := c.Create(root, "f", 0o644, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Time
	eng.Go("op", func(tk *sim.Task) {
		if _, err := c.WriteAt(n, 0, []byte("abc")); err != nil {
			t.Error(err)
		}
		elapsed = tk.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// OpCPU (1ms) + disk latency (5ms) = 6ms.
	if elapsed != sim.Time(6*sim.Millisecond) {
		t.Fatalf("elapsed = %d, want 6ms", elapsed)
	}
}

// opLog is a server-side filesystem that records the data-path ops it
// serves.
type opLog struct {
	*vfs.MemFS
	ops []string
}

func (l *opLog) Create(dir vfs.NodeID, name string, mode uint16, uid, gid int) (vfs.NodeID, error) {
	l.ops = append(l.ops, "create "+name)
	return l.MemFS.Create(dir, name, mode, uid, gid)
}

func (l *opLog) Truncate(n vfs.NodeID, size int64) error {
	l.ops = append(l.ops, fmt.Sprintf("truncate %d", size))
	return l.MemFS.Truncate(n, size)
}

func (l *opLog) WriteAt(n vfs.NodeID, off int64, data []byte) (int, error) {
	l.ops = append(l.ops, fmt.Sprintf("write %d+%d", off, len(data)))
	return l.MemFS.WriteAt(n, off, data)
}

// TestWriteFileRemoteOps: a whole-file write over NFS is a create or a
// truncate and then one write at offset 0, and the bytes cross the wire:
// the caller may reuse its buffer at once.
func TestWriteFileRemoteOps(t *testing.T) {
	net := netsim.New(sim.NewEngine(), 500*sim.Microsecond, sim.Microsecond)
	server := &opLog{MemFS: vfs.NewMemFS()}
	if err := Serve(net.AddHost("server"), server, nil, ServerCosts{}); err != nil {
		t.Fatal(err)
	}
	ns := vfs.NewNamespace(NewClient(net.AddHost("client"), "server"))
	buf := []byte("first")
	for _, want := range [][]string{{"create f", "write 0+5"}, {"truncate 0", "write 0+5"}} {
		server.ops = nil
		if err := ns.WriteFile("/f", buf, 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(server.ops) != fmt.Sprint(want) {
			t.Fatalf("ops %q, want %q", server.ops, want)
		}
		copy(buf, "reuse")
		if got, _ := ns.ReadFile("/f"); string(got) == "reuse" {
			t.Fatal("the server's file shares the client's buffer")
		}
		copy(buf, "first")
	}
}
