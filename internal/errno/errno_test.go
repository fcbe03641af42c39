package errno

import (
	"errors"
	"testing"
)

func TestErrorStrings(t *testing.T) {
	if ENOENT.Error() != "no such file or directory" {
		t.Fatalf("ENOENT = %q", ENOENT.Error())
	}
	if Errno(9999).Error() != "errno 9999" {
		t.Fatalf("unknown = %q", Errno(9999).Error())
	}
}

func TestOf(t *testing.T) {
	if Of(nil) != 0 {
		t.Fatal("Of(nil) != 0")
	}
	if Of(EPERM) != EPERM {
		t.Fatal("Of(EPERM) != EPERM")
	}
	if Of(errors.New("opaque")) != EIO {
		t.Fatal("Of(opaque) != EIO")
	}
}

func TestAllNamedErrnosHaveStrings(t *testing.T) {
	for _, e := range []Errno{
		EPERM, ENOENT, ESRCH, EINTR, EIO, ENXIO, E2BIG, ENOEXEC, EBADF,
		ECHILD, ENOMEM, EACCES, EFAULT, EBUSY, EEXIST, EXDEV, ENODEV, ENOTDIR,
		EISDIR, EINVAL, ENFILE, EMFILE, ENOTTY, EFBIG, ENOSPC, ESPIPE,
		EROFS, EMLINK, EPIPE, EAGAIN, ENOTSOCK, ETIMEDOUT, ECONNREFUSED,
		ELOOP, ENAMETOOLONG, EHOSTDOWN, ENOTEMPTY, ESTALE,
	} {
		if e.Error() == "" || e.Error()[0] == 'e' && e.Error()[1] == 'r' && len(e.Error()) < 9 {
			t.Errorf("errno %d has no name", int(e))
		}
	}
}

func TestFailLabel(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{ETIMEDOUT, "timeout"},
		{EHOSTDOWN, "host_down"},
		{ECONNREFUSED, "refused"},
		{EPERM, "denied"},
		{ESRCH, "no_such_process"},
		{EIO, "other"},
		{EINVAL, "other"},
		{errors.New("opaque"), "other"},
		{nil, "other"},
	} {
		if got := FailLabel(tc.err); got != tc.want {
			t.Errorf("FailLabel(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
