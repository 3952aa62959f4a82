// Package gluster implements a GlusterFS-like clustered file system on the
// simulation substrate.
//
// GlusterFS composes file systems out of stackable translators (xlators):
// each xlator implements the same operation set and wraps a child,
// transforming requests on the way down and results on the way up. This
// package provides the xlator interface (FS), the storage xlator (Posix,
// on the disk + page-cache models), the protocol pair (Client/Server, over
// the fabric), the namespace-distribution xlator (Distribute), and the
// FUSE-crossing cost model (Fuse). The IMCa translators CMCache and SMCache
// (internal/core) plug into the same stacks.
//
// Every operation runs on a sim.Task and delivers its result to a
// continuation: an xlator advances virtual time through the kernel's task
// primitives and calls its child with a continuation of its own. Sequential
// scripts (shells, examples, tests) drive a stack through Sync, which blocks
// a sim.Proc on each call via sim.Await.
package gluster

import (
	"errors"
	"fmt"

	"imca/internal/blob"
	"imca/internal/sim"
)

// FD is a file descriptor handle issued by Open/Create.
type FD int64

// Stat describes a file, mirroring the POSIX stat fields the paper's
// workloads consult (size and times; a producer/consumer polls Mtime).
type Stat struct {
	Path  string
	Ino   uint64
	Size  int64
	IsDir bool
	Atime sim.Time
	Mtime sim.Time
	Ctime sim.Time
}

// WireSize returns the encoded size of a stat structure.
func (s *Stat) WireSize() int64 { return 96 + int64(len(s.Path)) }

// File system errors. Protocol layers transport these by code.
var (
	ErrNotExist = errors.New("gluster: no such file or directory")
	ErrExist    = errors.New("gluster: file exists")
	ErrBadFD    = errors.New("gluster: bad file descriptor")
	ErrIsDir    = errors.New("gluster: is a directory")
	ErrNotDir   = errors.New("gluster: not a directory")
	// ErrServerDown reports a brick whose daemon is failed (see
	// Server.Fail); the request was refused before touching storage.
	ErrServerDown = errors.New("gluster: server is down")
)

// FS is the xlator interface: the operation set every translator
// implements. Each operation runs on task t, advancing virtual time through
// the kernel's task primitives, and calls k exactly once with its result —
// inline when it completes without waiting, otherwise from a later event.
type FS interface {
	// Create makes a new regular file and opens it.
	Create(t *sim.Task, path string, k func(FD, error))
	// Open opens an existing regular file.
	Open(t *sim.Task, path string, k func(FD, error))
	// Close releases a descriptor.
	Close(t *sim.Task, fd FD, k func(error))
	// Read delivers up to size bytes at off; short reads happen only at
	// end of file.
	Read(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error))
	// Write stores data at off, extending the file if needed, and
	// delivers the byte count written. Writes are persistent: they reach
	// the storage xlator (and its disk) before k runs.
	Write(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error))
	// Stat describes the file or directory at path.
	Stat(t *sim.Task, path string, k func(*Stat, error))
	// Unlink removes a regular file.
	Unlink(t *sim.Task, path string, k func(error))
	// Mkdir creates a directory (parents are created as needed).
	Mkdir(t *sim.Task, path string, k func(error))
	// Readdir lists the names in a directory.
	Readdir(t *sim.Task, path string, k func([]string, error))
	// Truncate sets the file size.
	Truncate(t *sim.Task, path string, size int64, k func(error))
}

// errCode converts an FS error to a compact wire code and back.
func errCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrNotExist):
		return "ENOENT"
	case errors.Is(err, ErrExist):
		return "EEXIST"
	case errors.Is(err, ErrBadFD):
		return "EBADF"
	case errors.Is(err, ErrIsDir):
		return "EISDIR"
	case errors.Is(err, ErrNotDir):
		return "ENOTDIR"
	case errors.Is(err, ErrServerDown):
		return "EHOSTDOWN"
	default:
		return "EIO:" + err.Error()
	}
}

func codeErr(code string) error {
	switch code {
	case "":
		return nil
	case "ENOENT":
		return ErrNotExist
	case "EEXIST":
		return ErrExist
	case "EBADF":
		return ErrBadFD
	case "EISDIR":
		return ErrIsDir
	case "ENOTDIR":
		return ErrNotDir
	case "EHOSTDOWN":
		return ErrServerDown
	default:
		return fmt.Errorf("gluster: remote error %s", code)
	}
}
