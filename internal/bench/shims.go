package bench

import (
	"context"

	"afraid/internal/cluster"
	"afraid/internal/core"
	"afraid/internal/layout"
	"afraid/internal/server"
)

// The shims wrap the four interfaces the stack exposes to the outside
// — core.BlockDevice, core.NVRAM, server.Backend and cluster.Node — and
// record one span per call. They exist only in the shims-on pass of a
// traced run; every end-to-end figure is measured without them.

// keyFunc maps a call's byte range to the stripes it touches.
type keyFunc func(off int64, n int) (k0, k1 int64)

func noKey(int64, int) (int64, int64) { return 0, -1 }

// unitKey is the key of a call against one member of a striped set
// (a core device, a cluster node or a node's store): offset/unit is the
// stripe. Offsets at or past trailer lie in core's checksum trailer,
// one slot per stripe.
func unitKey(unit, trailer int64) keyFunc {
	return func(off int64, n int) (int64, int64) {
		if trailer > 0 && off >= trailer {
			return (off - trailer) / layout.ChecksumSlotSize, (off + int64(n) - 1 - trailer) / layout.ChecksumSlotSize
		}
		return off / unit, (off + int64(n) - 1) / unit
	}
}

// spanKey is the key of a client-space range under geo.
func spanKey(geo layout.Geometry) keyFunc {
	sb := geo.StripeDataBytes()
	return func(off int64, n int) (int64, int64) { return off / sb, (off + int64(n) - 1) / sb }
}

// tap is what every shim shares: where to record and how to key.
type tap struct {
	rec  *recorder
	buf  *spanBuf
	kind spanKind
	key  keyFunc
}

func (r *recorder) tap(kind spanKind, key keyFunc) *tap {
	return &tap{rec: r, buf: r.buf(), kind: kind, key: key}
}

// start returns the time a call begins, or -1 while recording is off
// (set-up, verification), when shims pass straight through.
func (t *tap) start() int64 {
	if !t.rec.on.Load() {
		return -1
	}
	return t.rec.now()
}

// end records the span of the call that began at t0.
func (t *tap) end(t0 int64, write bool, off int64, n int) {
	if t0 < 0 {
		return
	}
	k0, k1 := t.key(off, n)
	t.buf.add(span{kind: t.kind, write: write, n: int32(n), start: t0, end: t.rec.now(), k0: k0, k1: k1})
}

type devShim struct {
	core.BlockDevice
	*tap
}

func (d *devShim) ReadAt(p []byte, off int64) (int, error) {
	t0 := d.start()
	n, err := d.BlockDevice.ReadAt(p, off)
	d.end(t0, false, off, len(p))
	return n, err
}

func (d *devShim) WriteAt(p []byte, off int64) (int, error) {
	t0 := d.start()
	n, err := d.BlockDevice.WriteAt(p, off)
	d.end(t0, true, off, len(p))
	return n, err
}

type nvShim struct {
	core.NVRAM
	*tap
}

func (v *nvShim) Store(img []byte) error {
	t0 := v.start()
	err := v.NVRAM.Store(img)
	v.end(t0, true, 0, len(img))
	return err
}

type backendShim struct {
	server.Backend
	*tap
}

func (b *backendShim) ReadContext(ctx context.Context, p []byte, off int64) (int, error) {
	t0 := b.start()
	n, err := b.Backend.ReadContext(ctx, p, off)
	b.end(t0, false, off, len(p))
	return n, err
}

func (b *backendShim) WriteContext(ctx context.Context, p []byte, off int64) (int, error) {
	t0 := b.start()
	n, err := b.Backend.WriteContext(ctx, p, off)
	b.end(t0, true, off, len(p))
	return n, err
}

type nodeShim struct {
	cluster.Node
	*tap
}

func (s *nodeShim) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	t0 := s.start()
	n, err := s.Node.ReadAtContext(ctx, p, off)
	s.end(t0, false, off, len(p))
	return n, err
}

func (s *nodeShim) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	t0 := s.start()
	n, err := s.Node.WriteAtContext(ctx, p, off)
	s.end(t0, true, off, len(p))
	return n, err
}
