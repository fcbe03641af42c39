// Package nfs implements the Sun Network Filesystem analogue the paper's
// environment depends on: a server exporting one machine's local disk, and
// a client implementing the vfs.BaseFS interface over the simulated
// Ethernet, so another machine can mount the export in its namespace (by
// the paper's convention, machine X's root appears everywhere as /n/X).
//
// Faithful to real NFS, the server exports the *local disk* filesystem
// only: mounts in the server's namespace are not crossed, so a mount-point
// directory looks empty through NFS. Symlinks are returned to the client
// for resolution (see the vfs package for how that reproduces the paper's
// /n/classic/n/brador failure).
package nfs

import (
	"bytes"
	"encoding/gob"

	"procmig/internal/errno"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/vfs"
)

// Port is the NFS service port.
const Port = 2049

type request struct {
	Op    string
	Node  vfs.NodeID
	Node2 vfs.NodeID
	Name  string
	Name2 string
	Mode  uint16
	UID   int
	GID   int
	Dev   vfs.DevID
	Off   int64
	Len   int
	Size  int64
	Data  []byte
}

type response struct {
	Err     errno.Errno
	Node    vfs.NodeID
	Attr    vfs.Attr
	Target  string
	Dirents []vfs.Dirent
	Data    []byte
	N       int
}

func encode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic("nfs: encode: " + err.Error())
	}
	return buf.Bytes()
}

func decode(raw []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(v)
}

// Fix the gob type ids of the NFS messages at init, so a message's size
// does not depend on what the process encoded before.
func init() {
	encode(&request{})
	encode(&response{})
}

// ServerCosts models server-side work per operation.
type ServerCosts struct {
	OpCPU       sim.Duration // request decode + fs work
	DiskLatency sim.Duration // charged on data-carrying ops
	DiskPerByte sim.Duration
}

// Serve exports fs on host's NFS port. cpu, if non-nil, is the server
// machine's CPU resource; costs are charged per operation.
func Serve(host *netsim.Host, fs vfs.BaseFS, cpu *sim.Resource, costs ServerCosts) error {
	return host.Listen(Port, func(t *sim.Task, raw []byte) []byte {
		var req request
		if err := decode(raw, &req); err != nil {
			return encode(&response{Err: errno.EINVAL})
		}
		if cpu != nil && t != nil && costs.OpCPU > 0 {
			cpu.Use(t, costs.OpCPU, nil)
		}
		resp := serveOp(fs, &req)
		if t != nil && (req.Op == "read" || req.Op == "write") {
			n := len(resp.Data) + len(req.Data)
			t.Sleep(costs.DiskLatency + sim.Duration(n)*costs.DiskPerByte)
		}
		return encode(resp)
	})
}

func serveOp(fs vfs.BaseFS, req *request) *response {
	resp := &response{}
	fail := func(err error) *response {
		resp.Err = errno.Of(err)
		return resp
	}
	switch req.Op {
	case "root":
		resp.Node = fs.Root()
	case "lookup":
		n, a, err := fs.Lookup(req.Node, req.Name)
		if err != nil {
			return fail(err)
		}
		resp.Node, resp.Attr = n, a
	case "getattr":
		a, err := fs.Getattr(req.Node)
		if err != nil {
			return fail(err)
		}
		resp.Attr = a
	case "setmode":
		if err := fs.Setmode(req.Node, req.Mode); err != nil {
			return fail(err)
		}
	case "readlink":
		tgt, err := fs.Readlink(req.Node)
		if err != nil {
			return fail(err)
		}
		resp.Target = tgt
	case "create":
		n, err := fs.Create(req.Node, req.Name, req.Mode, req.UID, req.GID)
		if err != nil {
			return fail(err)
		}
		resp.Node = n
	case "mkdir":
		n, err := fs.Mkdir(req.Node, req.Name, req.Mode, req.UID, req.GID)
		if err != nil {
			return fail(err)
		}
		resp.Node = n
	case "symlink":
		if err := fs.Symlink(req.Node, req.Name, req.Name2, req.UID, req.GID); err != nil {
			return fail(err)
		}
	case "mknod":
		n, err := fs.Mknod(req.Node, req.Name, req.Dev, req.Mode, req.UID, req.GID)
		if err != nil {
			return fail(err)
		}
		resp.Node = n
	case "remove":
		if err := fs.Remove(req.Node, req.Name); err != nil {
			return fail(err)
		}
	case "rename":
		if err := fs.Rename(req.Node, req.Name, req.Node2, req.Name2); err != nil {
			return fail(err)
		}
	case "readdir":
		ents, err := fs.ReadDir(req.Node)
		if err != nil {
			return fail(err)
		}
		resp.Dirents = ents
	case "read":
		data, err := fs.ReadAt(req.Node, req.Off, req.Len)
		if err != nil {
			return fail(err)
		}
		resp.Data = data
	case "write":
		n, err := fs.WriteAt(req.Node, req.Off, req.Data)
		if err != nil {
			return fail(err)
		}
		resp.N = n
	case "truncate":
		if err := fs.Truncate(req.Node, req.Size); err != nil {
			return fail(err)
		}
	default:
		resp.Err = errno.EINVAL
	}
	return resp
}

// Client accesses a remote export as a vfs.BaseFS. Calls run in the
// ambient engine task (free during setup, charged inside the simulation).
type Client struct {
	host   *netsim.Host
	server string
	root   vfs.NodeID
	gotRt  bool
}

// NewClient mounts-side handle for server's export, calling from host.
func NewClient(host *netsim.Host, server string) *Client {
	return &Client{host: host, server: server}
}

func (c *Client) call(req *request) (*response, error) {
	raw, err := c.host.Call(nil, c.server, Port, encode(req))
	if err != nil {
		return nil, err
	}
	var resp response
	if err := decode(raw, &resp); err != nil {
		return nil, errno.EIO
	}
	if resp.Err != 0 {
		return nil, resp.Err
	}
	return &resp, nil
}

// Root implements vfs.BaseFS. The root handle is fetched once and cached;
// if the server is unreachable at first use, the MemFS convention (node 1)
// is assumed and the next real operation reports the error.
func (c *Client) Root() vfs.NodeID {
	if !c.gotRt {
		if resp, err := c.call(&request{Op: "root"}); err == nil {
			c.root = resp.Node
			c.gotRt = true
		} else {
			return 1
		}
	}
	return c.root
}

// Lookup implements vfs.BaseFS.
func (c *Client) Lookup(dir vfs.NodeID, name string) (vfs.NodeID, vfs.Attr, error) {
	resp, err := c.call(&request{Op: "lookup", Node: dir, Name: name})
	if err != nil {
		return 0, vfs.Attr{}, err
	}
	return resp.Node, resp.Attr, nil
}

// Getattr implements vfs.BaseFS.
func (c *Client) Getattr(n vfs.NodeID) (vfs.Attr, error) {
	resp, err := c.call(&request{Op: "getattr", Node: n})
	if err != nil {
		return vfs.Attr{}, err
	}
	return resp.Attr, nil
}

// Setmode implements vfs.BaseFS.
func (c *Client) Setmode(n vfs.NodeID, mode uint16) error {
	_, err := c.call(&request{Op: "setmode", Node: n, Mode: mode})
	return err
}

// Readlink implements vfs.BaseFS.
func (c *Client) Readlink(n vfs.NodeID) (string, error) {
	resp, err := c.call(&request{Op: "readlink", Node: n})
	if err != nil {
		return "", err
	}
	return resp.Target, nil
}

// Create implements vfs.BaseFS.
func (c *Client) Create(dir vfs.NodeID, name string, mode uint16, uid, gid int) (vfs.NodeID, error) {
	resp, err := c.call(&request{Op: "create", Node: dir, Name: name, Mode: mode, UID: uid, GID: gid})
	if err != nil {
		return 0, err
	}
	return resp.Node, nil
}

// Mkdir implements vfs.BaseFS.
func (c *Client) Mkdir(dir vfs.NodeID, name string, mode uint16, uid, gid int) (vfs.NodeID, error) {
	resp, err := c.call(&request{Op: "mkdir", Node: dir, Name: name, Mode: mode, UID: uid, GID: gid})
	if err != nil {
		return 0, err
	}
	return resp.Node, nil
}

// Symlink implements vfs.BaseFS.
func (c *Client) Symlink(dir vfs.NodeID, name, target string, uid, gid int) error {
	_, err := c.call(&request{Op: "symlink", Node: dir, Name: name, Name2: target, UID: uid, GID: gid})
	return err
}

// Mknod implements vfs.BaseFS.
func (c *Client) Mknod(dir vfs.NodeID, name string, dev vfs.DevID, mode uint16, uid, gid int) (vfs.NodeID, error) {
	resp, err := c.call(&request{Op: "mknod", Node: dir, Name: name, Dev: dev, Mode: mode, UID: uid, GID: gid})
	if err != nil {
		return 0, err
	}
	return resp.Node, nil
}

// Remove implements vfs.BaseFS.
func (c *Client) Remove(dir vfs.NodeID, name string) error {
	_, err := c.call(&request{Op: "remove", Node: dir, Name: name})
	return err
}

// Rename implements vfs.BaseFS.
func (c *Client) Rename(olddir vfs.NodeID, oldname string, newdir vfs.NodeID, newname string) error {
	_, err := c.call(&request{Op: "rename", Node: olddir, Name: oldname, Node2: newdir, Name2: newname})
	return err
}

// ReadDir implements vfs.BaseFS.
func (c *Client) ReadDir(n vfs.NodeID) ([]vfs.Dirent, error) {
	resp, err := c.call(&request{Op: "readdir", Node: n})
	if err != nil {
		return nil, err
	}
	return resp.Dirents, nil
}

// ReadAt implements vfs.BaseFS.
func (c *Client) ReadAt(n vfs.NodeID, off int64, ln int) ([]byte, error) {
	resp, err := c.call(&request{Op: "read", Node: n, Off: off, Len: ln})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// WriteAt implements vfs.BaseFS.
func (c *Client) WriteAt(n vfs.NodeID, off int64, data []byte) (int, error) {
	resp, err := c.call(&request{Op: "write", Node: n, Off: off, Data: data})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Fill implements vfs.BaseFS as one write at offset 0: the bytes go out
// on the wire, so the caller's buffer is never kept.
func (c *Client) Fill(n vfs.NodeID, data []byte) error {
	_, err := c.WriteAt(n, 0, data)
	return err
}

// Truncate implements vfs.BaseFS.
func (c *Client) Truncate(n vfs.NodeID, size int64) error {
	_, err := c.call(&request{Op: "truncate", Node: n, Size: size})
	return err
}

var _ vfs.BaseFS = (*Client)(nil)
