package vfs

import (
	gopath "path"
	"strings"

	"procmig/internal/errno"
)

// MaxSymlinks bounds symlink expansions during one resolution.
const MaxSymlinks = 20

// Place is the result of resolving a path: a node within some filesystem,
// plus the canonical (symlink-free) namespace path that reached it.
type Place struct {
	FS    BaseFS
	Node  NodeID
	Attr  Attr
	Canon string
}

type mount struct {
	prefix string // canonical directory path, e.g. "/n/brador"
	fs     BaseFS
}

// Namespace is one machine's view of the file world: a root filesystem
// (the local disk) plus mounts — in this system, each other host's disk on
// /n/<host>, per the paper's 8th-edition convention.
type Namespace struct {
	rootFS BaseFS
	mounts []mount
}

// NewNamespace returns a namespace rooted at root with no mounts.
func NewNamespace(root BaseFS) *Namespace {
	return &Namespace{rootFS: root}
}

// Root returns the namespace's root filesystem.
func (ns *Namespace) Root() BaseFS { return ns.rootFS }

// Mount attaches fs at the directory path prefix (which must already exist
// as a directory when it is first crossed; resolution switches to fs there).
func (ns *Namespace) Mount(prefix string, fs BaseFS) error {
	p := gopath.Clean(prefix)
	if !strings.HasPrefix(p, "/") || p == "/" {
		return errno.EINVAL
	}
	for _, m := range ns.mounts {
		if m.prefix == p {
			return errno.EEXIST
		}
	}
	ns.mounts = append(ns.mounts, mount{prefix: p, fs: fs})
	return nil
}

// Mounts lists the mount prefixes.
func (ns *Namespace) Mounts() []string {
	out := make([]string, len(ns.mounts))
	for i, m := range ns.mounts {
		out[i] = m.prefix
	}
	return out
}

func (ns *Namespace) mountAt(canon string) (BaseFS, bool) {
	for _, m := range ns.mounts {
		if m.prefix == canon {
			return m.fs, true
		}
	}
	return nil, false
}

// prefixOf reports the namespace path of a filesystem's root: "/" for the
// root filesystem, the mount prefix for a mounted one.
func (ns *Namespace) prefixOf(fs BaseFS) string {
	for _, m := range ns.mounts {
		if m.fs == fs {
			return m.prefix
		}
	}
	return "/"
}

type frame struct {
	fs    BaseFS
	node  NodeID
	attr  Attr
	canon string
}

func splitComps(p string) []string {
	var out []string
	for _, c := range strings.Split(p, "/") {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

func joinCanon(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Resolve walks the absolute path, expanding symbolic links (including the
// last component when followLast is true) and crossing mounts.
//
// Absolute symlink targets restart at the root of the filesystem containing
// the link (see the package comment): for local links that is the machine
// namespace; for links inside an NFS mount the target is confined to that
// mount, reproducing the paper's /n/classic/n/brador failure mode.
func (ns *Namespace) Resolve(path string, followLast bool) (Place, error) {
	if !strings.HasPrefix(path, "/") {
		return Place{}, errno.EINVAL
	}
	rootAttr, err := ns.rootFS.Getattr(ns.rootFS.Root())
	if err != nil {
		return Place{}, err
	}
	frames := []frame{{fs: ns.rootFS, node: ns.rootFS.Root(), attr: rootAttr, canon: "/"}}
	comps := splitComps(path)
	budget := MaxSymlinks

	for len(comps) > 0 {
		c := comps[0]
		comps = comps[1:]
		if c == "." {
			continue
		}
		cur := &frames[len(frames)-1]
		if cur.attr.Type != TypeDir {
			return Place{}, errno.ENOTDIR
		}
		if c == ".." {
			if len(frames) > 1 {
				frames = frames[:len(frames)-1]
			}
			continue
		}
		node, attr, err := cur.fs.Lookup(cur.node, c)
		if err != nil {
			return Place{}, err
		}
		canon := joinCanon(cur.canon, c)
		if attr.Type == TypeSymlink && (len(comps) > 0 || followLast) {
			budget--
			if budget < 0 {
				return Place{}, errno.ELOOP
			}
			target, err := cur.fs.Readlink(node)
			if err != nil {
				return Place{}, err
			}
			if strings.HasPrefix(target, "/") {
				base := ns.prefixOf(cur.fs)
				rattr, err := cur.fs.Getattr(cur.fs.Root())
				if err != nil {
					return Place{}, err
				}
				frames = []frame{{fs: cur.fs, node: cur.fs.Root(), attr: rattr, canon: base}}
			}
			comps = append(splitComps(target), comps...)
			continue
		}
		if attr.Type == TypeDir {
			if mfs, ok := ns.mountAt(canon); ok {
				mattr, err := mfs.Getattr(mfs.Root())
				if err != nil {
					return Place{}, err
				}
				frames = append(frames, frame{fs: mfs, node: mfs.Root(), attr: mattr, canon: canon})
				continue
			}
		}
		frames = append(frames, frame{fs: cur.fs, node: node, attr: attr, canon: canon})
	}
	top := frames[len(frames)-1]
	return Place{FS: top.fs, Node: top.node, Attr: top.attr, Canon: top.canon}, nil
}

// ResolveParent resolves everything but the last component of path and
// returns the directory's Place plus the final name. The final component
// must be a plain name (not ".", ".." or empty) — kernel paths are
// lexically normalized before they get here.
func (ns *Namespace) ResolveParent(path string) (Place, string, error) {
	if !strings.HasPrefix(path, "/") {
		return Place{}, "", errno.EINVAL
	}
	clean := gopath.Clean(path)
	if clean == "/" {
		return Place{}, "", errno.EISDIR
	}
	dir, base := gopath.Split(clean)
	if base == "" || base == "." || base == ".." {
		return Place{}, "", errno.EINVAL
	}
	place, err := ns.Resolve(dir, true)
	if err != nil {
		return Place{}, "", err
	}
	if place.Attr.Type != TypeDir {
		return Place{}, "", errno.ENOTDIR
	}
	return place, base, nil
}

// --- Convenience helpers (setup, tests, user programs) ---------------------

// Stat resolves path (following symlinks) and returns its attributes.
func (ns *Namespace) Stat(path string) (Attr, error) {
	p, err := ns.Resolve(path, true)
	if err != nil {
		return Attr{}, err
	}
	return p.Attr, nil
}

// Lstat resolves path without following a final symlink.
func (ns *Namespace) Lstat(path string) (Attr, error) {
	p, err := ns.Resolve(path, false)
	if err != nil {
		return Attr{}, err
	}
	return p.Attr, nil
}

// ReadFile reads the whole regular file at path.
func (ns *Namespace) ReadFile(path string) ([]byte, error) {
	p, err := ns.Resolve(path, true)
	if err != nil {
		return nil, err
	}
	if p.Attr.Type != TypeFile {
		return nil, errno.EINVAL
	}
	return p.FS.ReadAt(p.Node, 0, int(p.Attr.Size))
}

// WriteFile creates (or truncates) the regular file at path and fills it
// with data. The filesystem may keep data rather than copy it (see
// BaseFS.Fill), so the caller must not modify data afterwards.
func (ns *Namespace) WriteFile(path string, data []byte, mode uint16, uid, gid int) error {
	_, err := ns.PutFile(path, data, mode, uid, gid)
	return err
}

// PutFile is WriteFile returning the file written, for a caller that
// charges the write by where it landed. Only Place.FS and Place.Node are
// set for a file it creates.
func (ns *Namespace) PutFile(path string, data []byte, mode uint16, uid, gid int) (Place, error) {
	p, err := ns.Resolve(path, true)
	if err == nil {
		if p.Attr.Type != TypeFile {
			return Place{}, errno.EINVAL
		}
		if err := p.FS.Truncate(p.Node, 0); err != nil {
			return Place{}, err
		}
	} else {
		dir, base, err := ns.ResolveParent(path)
		if err != nil {
			return Place{}, err
		}
		node, err := dir.FS.Create(dir.Node, base, mode, uid, gid)
		if err != nil {
			return Place{}, err
		}
		p = Place{FS: dir.FS, Node: node}
	}
	return p, p.FS.Fill(p.Node, data)
}

// MkdirAll creates the directory path and any missing parents.
func (ns *Namespace) MkdirAll(path string, mode uint16, uid, gid int) error {
	clean := gopath.Clean(path)
	if clean == "/" {
		return nil
	}
	comps := splitComps(clean)
	cur := "/"
	for _, c := range comps {
		cur = joinCanon(gopath.Clean(cur), c)
		if p, err := ns.Resolve(cur, true); err == nil {
			if p.Attr.Type != TypeDir {
				return errno.ENOTDIR
			}
			continue
		}
		dir, base, err := ns.ResolveParent(cur)
		if err != nil {
			return err
		}
		if _, err := dir.FS.Mkdir(dir.Node, base, mode, uid, gid); err != nil && errno.Of(err) != errno.EEXIST {
			return err
		}
	}
	return nil
}

// Symlink creates a symbolic link at path pointing to target.
func (ns *Namespace) Symlink(path, target string, uid, gid int) error {
	dir, base, err := ns.ResolveParent(path)
	if err != nil {
		return err
	}
	return dir.FS.Symlink(dir.Node, base, target, uid, gid)
}

// Remove unlinks the file, symlink, device or empty directory at path.
func (ns *Namespace) Remove(path string) error {
	dir, base, err := ns.ResolveParent(path)
	if err != nil {
		return err
	}
	return dir.FS.Remove(dir.Node, base)
}

// JoinPath combines a current directory with a path argument the way the
// paper's modified kernel does (§5.1): absolute arguments are taken as-is,
// relative ones appended to cwd, and "." / ".." resolved lexically — that
// is, without consulting symlinks, which is why dumpproc must resolve them
// later.
func JoinPath(cwd, arg string) string {
	if strings.HasPrefix(arg, "/") {
		return gopath.Clean(arg)
	}
	return gopath.Clean(gopath.Join(cwd, arg))
}
