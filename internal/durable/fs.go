// FS is the store's seam to the operating system. Production uses OSFS
// (thin os.* passthroughs); tests and chaos suites wrap it in FaultFS,
// which injects deterministic per-operation faults from a
// faults.DiskSchedule. Keeping the seam at the file-data level — writes,
// reads, renames — puts the interesting failure domain (the medium) under
// test while leaving directory metadata operations clean, so a faulty
// disk can never prevent the store from even enumerating its segments.
package durable

import (
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"

	"omniwindow/internal/faults"
)

// File is the writable handle the store appends WAL frames through.
type File interface {
	Write(p []byte) (int, error)
	Close() error
}

// FS abstracts every file operation the store performs.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OSFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// FaultFS wraps a base FS and injects faults from a DiskSchedule. Each
// file-data operation consumes one monotonically increasing operation
// index, so a retried operation redraws its fate rather than replaying
// it — exactly how a real transient fault behaves. Injected slow-IO
// latency accumulates virtually (never sleeps) and is drained by
// TakeSlowWait for the deployment to charge against its collection
// budget. Directory operations (MkdirAll, ReadDir, Remove) pass through
// unfaulted.
type FaultFS struct {
	base  FS
	sched *faults.DiskSchedule
	op    atomic.Uint64
	slow  atomic.Int64
}

// NewFaultFS wraps base with sched. A nil sched injects nothing.
func NewFaultFS(base FS, sched *faults.DiskSchedule) *FaultFS {
	if base == nil {
		base = OSFS{}
	}
	return &FaultFS{base: base, sched: sched}
}

// TakeSlowWait returns and resets the accumulated virtual slow-IO
// latency in nanoseconds.
func (f *FaultFS) TakeSlowWait() int64 { return f.slow.Swap(0) }

// Ops returns how many fault-drawable operations have run (test hook).
func (f *FaultFS) Ops() uint64 { return f.op.Load() }

func (f *FaultFS) next() uint64 {
	op := f.op.Add(1) - 1
	if slow, lat := f.sched.SlowIOAt(op); slow {
		f.slow.Add(lat)
	}
	return op
}

func (f *FaultFS) Create(name string) (File, error) {
	base, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: base, fs: f, name: name}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	op := f.next()
	if f.sched.ReadEIOAt(op) {
		return nil, fmt.Errorf("read %s: %w", name, faults.ErrDiskEIO)
	}
	return f.base.ReadFile(name)
}

// writeFault draws one write operation's fate — the single fault
// cascade behind both WriteFile and segment appends. It returns the bytes
// that reach the medium and the error to report once they have landed:
// ENOSPC and EIO land nothing (nil land); a torn write lands a prefix and
// reports EIO; bit rot lands a copy with one flipped byte and reports
// success — only a CRC re-read can tell. The clean path returns p itself
// and allocates nothing.
func (f *FaultFS) writeFault(name string, p []byte) (land []byte, err error) {
	op := f.next()
	s := f.sched
	switch {
	case s.ENOSPCAt(op):
		return nil, fmt.Errorf("write %s: %w", name, faults.ErrDiskENOSPC)
	case s.WriteEIOAt(op):
		return nil, fmt.Errorf("write %s: %w", name, faults.ErrDiskEIO)
	case s.ShortWriteAt(op) && len(p) > 1:
		return p[:len(p)/2], fmt.Errorf("write %s: torn: %w", name, faults.ErrDiskEIO)
	case s.BitRotAt(op) && len(p) > 0:
		idx, mask := s.BitRotSpot(op, len(p))
		rotted := append([]byte(nil), p...)
		rotted[idx] ^= mask
		return rotted, nil
	}
	return p, nil
}

func (f *FaultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	land, ferr := f.writeFault(name, data)
	if land == nil && ferr != nil {
		return ferr
	}
	if err := f.base.WriteFile(name, land, perm); err != nil {
		return err
	}
	return ferr
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	op := f.next()
	if f.sched.WriteEIOAt(op) {
		return fmt.Errorf("rename %s: %w", oldpath, faults.ErrDiskEIO)
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error { return f.base.Remove(name) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.base.MkdirAll(path, perm)
}
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.base.ReadDir(name) }

// faultFile injects write faults on an open segment handle.
type faultFile struct {
	f    File
	fs   *FaultFS
	name string
}

func (w *faultFile) Write(p []byte) (int, error) {
	land, ferr := w.fs.writeFault(w.name, p)
	if land == nil && ferr != nil {
		return 0, ferr
	}
	n, err := w.f.Write(land)
	if err == nil {
		err = ferr
	}
	return n, err
}

func (w *faultFile) Close() error { return w.f.Close() }
