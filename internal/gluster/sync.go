package gluster

import (
	"imca/internal/blob"
	"imca/internal/sim"
)

// Sync is the blocking face of an FS for sequential scripts — shells,
// examples, scripted experiment phases, tests. Each call runs the
// operation on the script's task t through sim.Await, which dispatches
// events until the continuation runs and adds no event of its own, so a
// script observes the same virtual instants a task issuing the operation
// would.
type Sync struct{ FS FS }

// Create makes a new regular file and opens it.
func (s Sync) Create(t *sim.Task, path string) (fd FD, err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Create(t, path, func(f FD, e error) { fd, err = f, e; done() })
	})
	return fd, err
}

// Open opens an existing regular file.
func (s Sync) Open(t *sim.Task, path string) (fd FD, err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Open(t, path, func(f FD, e error) { fd, err = f, e; done() })
	})
	return fd, err
}

// Close releases a descriptor.
//
//imcalint:allow instrcomplete Sync is a script adapter over an FS, not a layer; the wrapped stack registers its own instruments
func (s Sync) Close(t *sim.Task, fd FD) (err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Close(t, fd, func(e error) { err = e; done() })
	})
	return err
}

// Read returns up to size bytes at off.
func (s Sync) Read(t *sim.Task, fd FD, off, size int64) (data blob.Blob, err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Read(t, fd, off, size, func(d blob.Blob, e error) { data, err = d, e; done() })
	})
	return data, err
}

// Write stores data at off and returns the byte count written.
func (s Sync) Write(t *sim.Task, fd FD, off int64, data blob.Blob) (n int64, err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Write(t, fd, off, data, func(m int64, e error) { n, err = m, e; done() })
	})
	return n, err
}

// Stat describes the file or directory at path. The result is a copy the
// script owns: an xlator may lend its continuation a pooled structure that
// is valid only until its next operation.
func (s Sync) Stat(t *sim.Task, path string) (st *Stat, err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Stat(t, path, func(r *Stat, e error) {
			if r != nil {
				cp := *r
				st = &cp
			}
			err = e
			done()
		})
	})
	return st, err
}

// Unlink removes a regular file.
func (s Sync) Unlink(t *sim.Task, path string) (err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Unlink(t, path, func(e error) { err = e; done() })
	})
	return err
}

// Mkdir creates a directory.
func (s Sync) Mkdir(t *sim.Task, path string) (err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Mkdir(t, path, func(e error) { err = e; done() })
	})
	return err
}

// Readdir lists the names in a directory.
func (s Sync) Readdir(t *sim.Task, path string) (names []string, err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Readdir(t, path, func(n []string, e error) { names, err = n, e; done() })
	})
	return names, err
}

// Truncate sets the file size.
func (s Sync) Truncate(t *sim.Task, path string, size int64) (err error) {
	sim.Await(t, func(t *sim.Task, done func()) {
		s.FS.Truncate(t, path, size, func(e error) { err = e; done() })
	})
	return err
}
