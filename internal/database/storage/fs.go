package storage

import (
	"io"
	"os"
)

// FS is the slice of the filesystem a storage engine needs. The
// embedded engine threads every durable-path syscall — journal and
// blob-pack appends, snapshot tmp+rename writes, fsyncs, startup reads
// — through this interface so fault-injection harnesses
// (faultinject.DiskChaos) can interpose deterministic disk failures:
// EIO, ENOSPC, short writes, fsync failures, torn renames, and
// crash-point truncation.
//
// The default implementation is OSFS, a thin veneer over package os.
type FS interface {
	// MkdirAll creates a directory path along with any necessary parents.
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile is the generalized open call (os.OpenFile semantics).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove removes the named file.
	Remove(name string) error
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to the named file, creating it if necessary.
	WriteFile(name string, data []byte, perm os.FileMode) error
	// ReadDir reads the named directory, returning its entries sorted.
	ReadDir(name string) ([]os.DirEntry, error)
}

// File is the open-file surface the engine uses: sequential and random
// reads, appends, truncation, and — critically for durability — Sync.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Truncate(size int64) error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
