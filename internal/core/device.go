// Package core implements a functional (real-data, wall-clock) AFRAID
// store: a software disk array with immediate data writes, an NVRAM
// dirty-stripe map, deferred parity rebuilt by a background scrubber,
// crash recovery, and single-disk failure reconstruction. Where the
// sibling simulator packages reproduce the paper's *measurements*, this
// package is the adoptable implementation of its *mechanism*.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"afraid/internal/nvram"
)

// BlockDevice is the backing store for one member disk.
type BlockDevice interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the device capacity in bytes.
	Size() int64
	// Close releases the device.
	Close() error
}

// ErrDeviceFailed is returned by a device that has been failed by fault
// injection (or by the array when an operation needs a failed device).
var ErrDeviceFailed = errors.New("core: device failed")

// MemDevice is an in-memory block device, useful for tests and examples.
type MemDevice struct {
	mu     sync.RWMutex
	data   []byte
	failed bool
}

// NewMemDevice allocates a zeroed in-memory device.
func NewMemDevice(size int64) *MemDevice {
	if size <= 0 {
		panic(fmt.Sprintf("core: device size %d must be positive", size))
	}
	return &MemDevice{data: make([]byte, size)}
}

// ReadAt implements io.ReaderAt.
func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.failed {
		return 0, ErrDeviceFailed
	}
	if off < 0 || off >= int64(len(d.data)) {
		return 0, fmt.Errorf("core: read at %d outside device size %d", off, len(d.data))
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (d *MemDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return 0, ErrDeviceFailed
	}
	if off < 0 || off+int64(len(p)) > int64(len(d.data)) {
		return 0, fmt.Errorf("core: write [%d,%d) outside device size %d", off, off+int64(len(p)), len(d.data))
	}
	copy(d.data[off:], p)
	return len(p), nil
}

// Size returns the device capacity.
func (d *MemDevice) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data))
}

// Close is a no-op for memory devices.
func (d *MemDevice) Close() error { return nil }

// Fail simulates a fail-stop disk failure: all subsequent I/O errors.
func (d *MemDevice) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Failed reports whether the device has been failed.
func (d *MemDevice) Failed() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.failed
}

// FileDevice is a file-backed block device.
type FileDevice struct {
	f    *os.File
	size int64
}

// FileDeviceOptions configures OpenFileDeviceOpts.
type FileDeviceOptions struct {
	// Preallocate reserves the device's blocks at open time instead of
	// leaving the image sparse. Without it, the first write to each
	// filesystem block pays an allocation (and on a filling disk may
	// fail with ENOSPC mid-workload); with it, the space is committed
	// up front and steady-state writes never stall on the allocator.
	// Uses fallocate where the platform and filesystem support it,
	// falling back to zero-filling the file's unwritten tail.
	Preallocate bool
}

// OpenFileDevice creates (or opens) path and ensures it is exactly size
// bytes long.
func OpenFileDevice(path string, size int64) (*FileDevice, error) {
	return OpenFileDeviceOpts(path, size, FileDeviceOptions{})
}

// OpenFileDeviceOpts is OpenFileDevice with explicit options.
func OpenFileDeviceOpts(path string, size int64, opts FileDeviceOptions) (*FileDevice, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: device size %d must be positive", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	oldSize := st.Size()
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if opts.Preallocate {
		if err := preallocFile(f, oldSize, size); err != nil {
			f.Close()
			return nil, fmt.Errorf("core: preallocating %s: %w", path, err)
		}
	}
	return &FileDevice{f: f, size: size}, nil
}

// zeroFill is the portable preallocation fallback: it materializes the
// file's blocks from oldSize (the length before this open grew it) up
// to size by writing zeros. Existing bytes are never touched, so
// reopening a populated image is safe; a pre-existing sparse region
// below oldSize stays sparse, which is the best a write-based fallback
// can do.
func zeroFill(f *os.File, oldSize, size int64) error {
	if oldSize >= size {
		return nil
	}
	buf := make([]byte, 1<<20)
	for off := oldSize; off < size; {
		n := int64(len(buf))
		if off+n > size {
			n = size - off
		}
		if _, err := f.WriteAt(buf[:n], off); err != nil {
			return err
		}
		off += n
	}
	return f.Sync()
}

// ReadAt implements io.ReaderAt.
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) { return d.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) { return d.f.WriteAt(p, off) }

// Size returns the device capacity.
func (d *FileDevice) Size() int64 { return d.size }

// Close closes the backing file.
func (d *FileDevice) Close() error { return d.f.Close() }

// Sync flushes the backing file to stable storage.
func (d *FileDevice) Sync() error { return d.f.Sync() }

// NVRAM persists the marking memory across crashes: it is where the
// store's engine keeps its image (nvram.Persister).
type NVRAM = nvram.Persister

// MemNVRAM is an in-memory NVRAM, for tests: it survives Store reopen
// (pass the same instance) but not process exit.
type MemNVRAM struct {
	mu  sync.Mutex
	img []byte
}

// Load returns the stored image.
func (m *MemNVRAM) Load() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.img == nil {
		return nil, nil
	}
	out := make([]byte, len(m.img))
	copy(out, m.img)
	return out, nil
}

// Store replaces the image.
func (m *MemNVRAM) Store(img []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.img = append(m.img[:0], img...) // Load hands out copies, so the old image's memory is free to take the new
	return nil
}

// FileNVRAM persists the marking memory in a file with fsync.
type FileNVRAM struct {
	path string
	mu   sync.Mutex
}

// NewFileNVRAM returns a file-backed NVRAM at path.
func NewFileNVRAM(path string) *FileNVRAM { return &FileNVRAM{path: path} }

// Load reads the image; a missing file is an empty NVRAM.
func (n *FileNVRAM) Load() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	img, err := os.ReadFile(n.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return img, err
}

// Store atomically replaces the image (write temp, fsync, rename).
func (n *FileNVRAM) Store(img []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	tmp := n.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, n.path)
}
