// Package vfs implements the filesystem substrate: an inode-level
// filesystem interface (BaseFS), an in-memory implementation (MemFS)
// standing in for a local disk, and a per-machine Namespace that stitches
// filesystems together with mount points and performs symlink-aware path
// resolution.
//
// The symlink semantics deliberately reproduce the behaviour the paper
// describes in §4.3: an absolute symlink target is resolved against the
// root of the filesystem that contains the link. For links on the local
// disk that root is the machine's namespace (so /usr → /n/brador/usr works
// normally, mounts included), but for links read through an NFS mount the
// target lands back inside the mount — /n/classic + /n/brador/usr becomes
// /n/classic/n/brador/usr, which names an empty mount-point directory on
// classic's exported disk and fails. This is exactly why dumpproc must
// resolve symbolic links before prepending /n/<machine>.
package vfs

import (
	"sort"
	"strings"

	"procmig/internal/errno"
)

// NodeType classifies an inode.
type NodeType int

const (
	TypeFile NodeType = iota + 1
	TypeDir
	TypeSymlink
	TypeDev
)

func (t NodeType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	case TypeDev:
		return "dev"
	default:
		return "?"
	}
}

// NodeID identifies an inode within one BaseFS.
type NodeID uint64

// DevID identifies a device driver slot on a machine (e.g. a terminal or
// the null device). The kernel maps DevIDs to drivers.
type DevID int

// Attr is the subset of inode attributes the system uses.
type Attr struct {
	Type NodeType
	Mode uint16 // permission bits, e.g. 0o644
	UID  int
	GID  int
	Size int64
	Dev  DevID // for TypeDev nodes
}

// Dirent is one directory entry.
type Dirent struct {
	Name string
	Node NodeID
	Type NodeType
}

// BaseFS is the inode-level filesystem interface. MemFS implements it
// directly; the NFS client implements it over the network. Reads hand the
// caller a buffer of its own; a whole-file write (Fill) may keep the
// caller's buffer, which is how one program image serves every machine it
// is installed on and a spooled image lands in /usr/tmp without a copy.
type BaseFS interface {
	// Root returns the root directory's node.
	Root() NodeID
	// Lookup resolves name within the directory dir. It handles "." and
	// "..“ within the filesystem; crossing mount boundaries is the
	// Namespace's job.
	Lookup(dir NodeID, name string) (NodeID, Attr, error)
	// Getattr returns a node's attributes.
	Getattr(n NodeID) (Attr, error)
	// Setmode changes a node's permission bits.
	Setmode(n NodeID, mode uint16) error
	// Readlink returns a symlink's target.
	Readlink(n NodeID) (string, error)
	// Create makes a regular file in dir. EEXIST if the name is taken.
	Create(dir NodeID, name string, mode uint16, uid, gid int) (NodeID, error)
	// Mkdir makes a directory in dir.
	Mkdir(dir NodeID, name string, mode uint16, uid, gid int) (NodeID, error)
	// Symlink makes a symbolic link in dir pointing at target.
	Symlink(dir NodeID, name, target string, uid, gid int) error
	// Mknod makes a device node in dir.
	Mknod(dir NodeID, name string, dev DevID, mode uint16, uid, gid int) (NodeID, error)
	// Remove unlinks name from dir. Directories must be empty.
	Remove(dir NodeID, name string) error
	// Rename moves olddir/oldname to newdir/newname, replacing any
	// existing non-directory target.
	Rename(olddir NodeID, oldname string, newdir NodeID, newname string) error
	// ReadDir lists a directory, sorted by name.
	ReadDir(n NodeID) ([]Dirent, error)
	// ReadAt reads up to ln bytes at off from a regular file into a new
	// buffer the caller owns: execve hands it to the VM without a copy.
	ReadAt(n NodeID, off int64, ln int) ([]byte, error)
	// WriteAt writes data at off, extending the file (zero-filling any
	// gap) as needed. Returns bytes written.
	WriteAt(n NodeID, off int64, data []byte) (int, error)
	// Fill writes data as the whole contents of the regular file n, which
	// the caller has just created or truncated to empty. It may keep data
	// by reference instead of copying it, so the caller must not modify
	// data afterwards.
	Fill(n NodeID, data []byte) error
	// Truncate sets a regular file's size.
	Truncate(n NodeID, size int64) error
}

// --- MemFS -----------------------------------------------------------------

type inode struct {
	attr Attr
	// data holds a regular file's bytes: len(data) == attr.Size, and
	// spare capacity past it is kept for appending writes. When shared,
	// data is a buffer handed to Fill, which other files and the writer
	// may hold too; it is copied before its first change.
	data    []byte
	shared  bool
	entries map[string]NodeID // directories
	parent  NodeID            // directories
	target  string            // symlinks
}

// MemFS is an in-memory BaseFS: one simulated local disk.
type MemFS struct {
	nodes map[NodeID]*inode
	next  NodeID
}

// NewMemFS returns a filesystem containing only a root directory owned by
// root with mode 0755.
func NewMemFS() *MemFS {
	fs := &MemFS{nodes: map[NodeID]*inode{}, next: 1}
	root := fs.alloc(Attr{Type: TypeDir, Mode: 0o755})
	fs.nodes[root].parent = root
	return fs
}

func (fs *MemFS) alloc(attr Attr) NodeID {
	id := fs.next
	fs.next++
	ino := &inode{attr: attr}
	if attr.Type == TypeDir {
		ino.entries = map[string]NodeID{}
	}
	fs.nodes[id] = ino
	return id
}

func (fs *MemFS) get(n NodeID) (*inode, error) {
	ino, ok := fs.nodes[n]
	if !ok {
		return nil, errno.ESTALE
	}
	return ino, nil
}

func (fs *MemFS) dir(n NodeID) (*inode, error) {
	ino, err := fs.get(n)
	if err != nil {
		return nil, err
	}
	if ino.attr.Type != TypeDir {
		return nil, errno.ENOTDIR
	}
	return ino, nil
}

// Root implements BaseFS.
func (fs *MemFS) Root() NodeID { return 1 }

// Lookup implements BaseFS.
func (fs *MemFS) Lookup(dir NodeID, name string) (NodeID, Attr, error) {
	d, err := fs.dir(dir)
	if err != nil {
		return 0, Attr{}, err
	}
	switch name {
	case "", ".":
		return dir, d.attr, nil
	case "..":
		p, err := fs.get(d.parent)
		if err != nil {
			return 0, Attr{}, err
		}
		return d.parent, p.attr, nil
	}
	id, ok := d.entries[name]
	if !ok {
		return 0, Attr{}, errno.ENOENT
	}
	ino, err := fs.get(id)
	if err != nil {
		return 0, Attr{}, err
	}
	return id, ino.attr, nil
}

// Getattr implements BaseFS.
func (fs *MemFS) Getattr(n NodeID) (Attr, error) {
	ino, err := fs.get(n)
	if err != nil {
		return Attr{}, err
	}
	return ino.attr, nil
}

// Setmode implements BaseFS.
func (fs *MemFS) Setmode(n NodeID, mode uint16) error {
	ino, err := fs.get(n)
	if err != nil {
		return err
	}
	ino.attr.Mode = mode & 0o7777
	return nil
}

// Readlink implements BaseFS.
func (fs *MemFS) Readlink(n NodeID) (string, error) {
	ino, err := fs.get(n)
	if err != nil {
		return "", err
	}
	if ino.attr.Type != TypeSymlink {
		return "", errno.EINVAL
	}
	return ino.target, nil
}

func (fs *MemFS) insert(dir NodeID, name string, attr Attr) (NodeID, error) {
	d, err := fs.dir(dir)
	if err != nil {
		return 0, err
	}
	if name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
		return 0, errno.EINVAL
	}
	if _, ok := d.entries[name]; ok {
		return 0, errno.EEXIST
	}
	id := fs.alloc(attr)
	if attr.Type == TypeDir {
		fs.nodes[id].parent = dir
	}
	d.entries[name] = id
	return id, nil
}

// Create implements BaseFS.
func (fs *MemFS) Create(dir NodeID, name string, mode uint16, uid, gid int) (NodeID, error) {
	return fs.insert(dir, name, Attr{Type: TypeFile, Mode: mode & 0o7777, UID: uid, GID: gid})
}

// Mkdir implements BaseFS.
func (fs *MemFS) Mkdir(dir NodeID, name string, mode uint16, uid, gid int) (NodeID, error) {
	return fs.insert(dir, name, Attr{Type: TypeDir, Mode: mode & 0o7777, UID: uid, GID: gid})
}

// Symlink implements BaseFS.
func (fs *MemFS) Symlink(dir NodeID, name, target string, uid, gid int) error {
	id, err := fs.insert(dir, name, Attr{Type: TypeSymlink, Mode: 0o777, UID: uid, GID: gid})
	if err != nil {
		return err
	}
	fs.nodes[id].target = target
	fs.nodes[id].attr.Size = int64(len(target))
	return nil
}

// Mknod implements BaseFS.
func (fs *MemFS) Mknod(dir NodeID, name string, dev DevID, mode uint16, uid, gid int) (NodeID, error) {
	return fs.insert(dir, name, Attr{Type: TypeDev, Mode: mode & 0o7777, UID: uid, GID: gid, Dev: dev})
}

// Remove implements BaseFS.
func (fs *MemFS) Remove(dir NodeID, name string) error {
	d, err := fs.dir(dir)
	if err != nil {
		return err
	}
	if name == "." || name == ".." {
		return errno.EINVAL
	}
	id, ok := d.entries[name]
	if !ok {
		return errno.ENOENT
	}
	ino := fs.nodes[id]
	if ino.attr.Type == TypeDir && len(ino.entries) > 0 {
		return errno.ENOTEMPTY
	}
	delete(d.entries, name)
	delete(fs.nodes, id)
	return nil
}

// Rename implements BaseFS.
func (fs *MemFS) Rename(olddir NodeID, oldname string, newdir NodeID, newname string) error {
	od, err := fs.dir(olddir)
	if err != nil {
		return err
	}
	nd, err := fs.dir(newdir)
	if err != nil {
		return err
	}
	id, ok := od.entries[oldname]
	if !ok {
		return errno.ENOENT
	}
	if newname == "" || newname == "." || newname == ".." || strings.Contains(newname, "/") {
		return errno.EINVAL
	}
	if existing, ok := nd.entries[newname]; ok {
		if fs.nodes[existing].attr.Type == TypeDir {
			return errno.EISDIR
		}
		delete(fs.nodes, existing)
	}
	delete(od.entries, oldname)
	nd.entries[newname] = id
	if fs.nodes[id].attr.Type == TypeDir {
		fs.nodes[id].parent = newdir
	}
	return nil
}

// ReadDir implements BaseFS.
func (fs *MemFS) ReadDir(n NodeID) ([]Dirent, error) {
	d, err := fs.dir(n)
	if err != nil {
		return nil, err
	}
	out := make([]Dirent, 0, len(d.entries))
	for name, id := range d.entries {
		out = append(out, Dirent{Name: name, Node: id, Type: fs.nodes[id].attr.Type})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// file returns n's inode if it is a regular file.
func (fs *MemFS) file(n NodeID) (*inode, error) {
	ino, err := fs.get(n)
	if err != nil {
		return nil, err
	}
	if ino.attr.Type == TypeDir {
		return nil, errno.EISDIR
	}
	if ino.attr.Type != TypeFile {
		return nil, errno.EINVAL
	}
	return ino, nil
}

// ReadAt implements BaseFS.
func (fs *MemFS) ReadAt(n NodeID, off int64, ln int) ([]byte, error) {
	ino, err := fs.file(n)
	if err != nil {
		return nil, err
	}
	if off < 0 {
		return nil, errno.EINVAL
	}
	if off >= int64(len(ino.data)) {
		return nil, nil
	}
	end := off + int64(ln)
	if end > int64(len(ino.data)) {
		end = int64(len(ino.data))
	}
	return append([]byte(nil), ino.data[off:end]...), nil
}

// WriteAt implements BaseFS. The first write into a shared file copies
// it.
func (fs *MemFS) WriteAt(n NodeID, off int64, data []byte) (int, error) {
	ino, err := fs.file(n)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, errno.EINVAL
	}
	if end := off + int64(len(data)); end > int64(len(ino.data)) {
		ino.grow(end)
	} else if ino.shared {
		ino.data, ino.shared = append([]byte(nil), ino.data...), false
	}
	copy(ino.data[off:], data)
	return len(data), nil
}

// Fill implements BaseFS by keeping data, capped at its length, as a
// shared buffer: the first change to the file's bytes copies it.
func (fs *MemFS) Fill(n NodeID, data []byte) error {
	ino, err := fs.file(n)
	if err != nil {
		return err
	}
	ino.data = data[:len(data):len(data)]
	ino.shared = len(data) > 0
	ino.attr.Size = int64(len(data))
	return nil
}

// Truncate implements BaseFS. Shrinking keeps the buffer (a shared one
// stays shared); growing zero-fills.
func (fs *MemFS) Truncate(n NodeID, size int64) error {
	ino, err := fs.get(n)
	if err != nil {
		return err
	}
	if ino.attr.Type != TypeFile {
		return errno.EINVAL
	}
	if size < 0 {
		return errno.EINVAL
	}
	if size <= int64(len(ino.data)) {
		ino.data = ino.data[:size]
		ino.attr.Size = size
	} else {
		ino.grow(size)
	}
	return nil
}

// grow extends a file to size bytes, zero-filling, in a private buffer.
// A reallocation reserves at least twice the old length, so a file built
// by appending writes costs bytes linear in its size, not quadratic.
func (ino *inode) grow(size int64) {
	n := int64(len(ino.data))
	if ino.shared || size > int64(cap(ino.data)) {
		buf := make([]byte, size, max(size, 2*n))
		copy(buf, ino.data)
		ino.data, ino.shared = buf, false
	} else {
		ino.data = ino.data[:size]
		clear(ino.data[n:])
	}
	ino.attr.Size = size
}

var _ BaseFS = (*MemFS)(nil)
