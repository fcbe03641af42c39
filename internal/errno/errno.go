// Package errno defines the Unix-style error numbers shared by the
// simulated kernel, filesystem and network layers, with the historical
// 4.2BSD values.
package errno

import "fmt"

// Errno is a Unix error number. The zero value means "no error".
type Errno int

// ERESTART is a kernel-internal sentinel (negative, never shown to user
// code, matching the BSD convention): returned by the SIGDUMP dump hook
// when a transactional migration aborted and the process must resume
// exactly where it was instead of dying.
const ERESTART Errno = -1

// Error numbers (4.2BSD values).
const (
	EPERM        Errno = 1
	ENOENT       Errno = 2
	ESRCH        Errno = 3
	EINTR        Errno = 4
	EIO          Errno = 5
	ENXIO        Errno = 6
	E2BIG        Errno = 7
	ENOEXEC      Errno = 8
	EBADF        Errno = 9
	ECHILD       Errno = 10
	ENOMEM       Errno = 12
	EACCES       Errno = 13
	EFAULT       Errno = 14
	EBUSY        Errno = 16
	EEXIST       Errno = 17
	EXDEV        Errno = 18
	ENODEV       Errno = 19
	ENOTDIR      Errno = 20
	EISDIR       Errno = 21
	EINVAL       Errno = 22
	ENFILE       Errno = 23
	EMFILE       Errno = 24
	ENOTTY       Errno = 25
	EFBIG        Errno = 27
	ENOSPC       Errno = 28
	ESPIPE       Errno = 29
	EROFS        Errno = 30
	EMLINK       Errno = 31
	EPIPE        Errno = 32
	EAGAIN       Errno = 35
	ENOTSOCK     Errno = 38
	ETIMEDOUT    Errno = 60
	ECONNREFUSED Errno = 61
	ELOOP        Errno = 62
	ENAMETOOLONG Errno = 63
	EHOSTDOWN    Errno = 64
	ENOTEMPTY    Errno = 66
	ESTALE       Errno = 70
)

var names = map[Errno]string{
	ERESTART:     "restart interrupted operation",
	EPERM:        "operation not permitted",
	ENOENT:       "no such file or directory",
	ESRCH:        "no such process",
	EINTR:        "interrupted system call",
	EIO:          "i/o error",
	ENXIO:        "no such device or address",
	E2BIG:        "argument list too long",
	ENOEXEC:      "exec format error",
	EBADF:        "bad file number",
	ECHILD:       "no children",
	ENOMEM:       "not enough memory",
	EACCES:       "permission denied",
	EFAULT:       "bad address",
	EBUSY:        "device busy",
	EEXIST:       "file exists",
	EXDEV:        "cross-device link",
	ENODEV:       "no such device",
	ENOTDIR:      "not a directory",
	EISDIR:       "is a directory",
	EINVAL:       "invalid argument",
	ENFILE:       "file table overflow",
	EMFILE:       "too many open files",
	ENOTTY:       "not a typewriter",
	EFBIG:        "file too large",
	ENOSPC:       "no space left on device",
	ESPIPE:       "illegal seek",
	EROFS:        "read-only file system",
	EMLINK:       "too many links",
	EPIPE:        "broken pipe",
	EAGAIN:       "resource temporarily unavailable",
	ENOTSOCK:     "socket operation on non-socket",
	ETIMEDOUT:    "connection timed out",
	ECONNREFUSED: "connection refused",
	ELOOP:        "too many levels of symbolic links",
	ENAMETOOLONG: "file name too long",
	EHOSTDOWN:    "host is down",
	ENOTEMPTY:    "directory not empty",
	ESTALE:       "stale NFS file handle",
}

func (e Errno) Error() string {
	if s, ok := names[e]; ok {
		return s
	}
	return fmt.Sprintf("errno %d", int(e))
}

// Of extracts the Errno from err, or EIO if err is not an Errno.
// Of(nil) is 0.
func Of(err error) Errno {
	if err == nil {
		return 0
	}
	if e, ok := err.(Errno); ok {
		return e
	}
	return EIO
}

// FailLabel buckets a failed remote operation into a stable metric label,
// so dashboards can tell failure modes apart: "timeout", "host_down",
// "refused", "denied", "no_such_process", or "other" for anything else.
func FailLabel(err error) string {
	switch Of(err) {
	case ETIMEDOUT:
		return "timeout"
	case EHOSTDOWN:
		return "host_down"
	case ECONNREFUSED:
		return "refused"
	case EPERM:
		return "denied"
	case ESRCH:
		return "no_such_process"
	default:
		return "other"
	}
}
