package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"afraid/internal/cluster"
	"afraid/internal/core"
	"afraid/internal/layout"
	"afraid/internal/server"
	"afraid/internal/tier"
)

// target is the block surface every stack offers a client:
// *server.Client, *core.Store, *tier.Store and *cluster.Volume all
// have it.
type target interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
}

const (
	memberSize   = 64 << 20 // every member device of every stack
	members      = 5        // devices of a core store
	clusterNodes = 4
	clusterUnit  = 64 << 10
	tierSlots    = 64 // extents the tier's front holds
)

// stack is one assembled system under test, built from the public
// constructors only.
type stack struct {
	targets []target        // one per client
	direct  target          // the in-process handle set-up prefills through
	geo     layout.Geometry // the volume's for the cluster
	reqKey  keyFunc         // stripes of a client request under geo
	root    string          // layer that owns a client span's own time
	rec     *recorder       // nil without shims
	pool    *devPool        // where member devices come from and go back to

	stores  []*core.Store
	servers []*server.Server
	tier    *tier.Store
	vol     *cluster.Volume
	models  []*modelDev
	ring    []*ringDev         // lifecycle only: the members and one spare, by turns member 2
	ringDev []core.BlockDevice // the same devices as the store sees them (under a shim when traced)

	dirty   func() int64        // unredundant stripes right now
	flush   func() error        // make everything redundant
	check   func() (int, error) // stripes whose parity does not match their data
	closers []func()            // run last to first
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// devPool hands the memory devices of a run's closed stacks to its next
// stack, wiped. A run sets its stack up several times to time it; with a
// fresh 64 MiB allocation per member each time, what a set-up took
// depended on how much of the last stack's memory the runtime had given
// back to the OS meanwhile (the first four set-ups of a process read
// 430, 390, 270 and 235 ms), and every page given back is mapped again
// at whatever the host charges for a page fault that minute.
type devPool struct{ free []*core.MemDevice }

// get returns a blank device of the given size with every page mapped:
// one a closed stack left, wiped, or a new one, wiped too, so that its
// pages are not mapped inside a timed pass.
func (p *devPool) get(size int64) *core.MemDevice {
	var d *core.MemDevice
	for i, f := range p.free {
		if f.Size() == size {
			d, p.free = f, append(p.free[:i], p.free[i+1:]...)
			break
		}
	}
	if d == nil {
		d = core.NewMemDevice(size)
	}
	wipe(d)
	return d
}

// wipe zeroes a device.
func wipe(d *core.MemDevice) {
	zeros := make([]byte, 1<<20)
	for off := int64(0); off < d.Size(); off += int64(len(zeros)) {
		d.WriteAt(zeros[:min(int64(len(zeros)), d.Size()-off)], off) // cannot fail: in range, never failed
	}
}

// memDev takes a device from the pool until the stack is closed.
func (s *stack) memDev(size int64) *core.MemDevice {
	d := s.pool.get(size)
	s.closers = append(s.closers, func() { s.pool.free = append(s.pool.free, d) })
	return d
}

func (s *stack) setGeo(geo layout.Geometry) { s.geo, s.reqKey = geo, spanKey(geo) }

// model switches the modelled service time of every modelDev.
func (s *stack) model(on bool) {
	for _, d := range s.models {
		d.on.Store(on)
	}
}

// newDevs makes n memory devices of the given size, each under a
// modelDev when model is set and under a shim when rec is.
func (s *stack) newDevs(n int, size int64, model bool, key keyFunc) []core.BlockDevice {
	devs := make([]core.BlockDevice, n)
	for i := range devs {
		devs[i] = s.wrapDev(s.memDev(size), model, key)
	}
	return devs
}

func (s *stack) wrapDev(dev core.BlockDevice, model bool, key keyFunc) core.BlockDevice {
	if model {
		m := newModelDev(dev, modelService)
		s.models = append(s.models, m)
		dev = m
	}
	if s.rec != nil {
		dev = &devShim{dev, s.rec.tap(spDevice, key)}
	}
	return dev
}

func (s *stack) newNVRAM() core.NVRAM {
	var nv core.NVRAM = &core.MemNVRAM{}
	if s.rec != nil {
		nv = &nvShim{nv, s.rec.tap(spNVRAM, noKey)}
	}
	return nv
}

// coreDevKey keys a member-device call of a core store with the given
// options over memberSize devices.
func coreDevKey(opts core.Options) keyFunc {
	trailer := int64(0)
	if opts.Checksums {
		trailer = layout.UsableDiskSize(memberSize, opts.StripeUnit, true)
	}
	return unitKey(opts.StripeUnit, trailer)
}

// openCore opens a core store over fresh members and registers it.
func (s *stack) openCore(opts core.Options, model bool) (*core.Store, error) {
	st, err := core.Open(s.newDevs(members, memberSize, model, coreDevKey(opts)), s.newNVRAM(), opts)
	if err != nil {
		return nil, err
	}
	s.stores = append(s.stores, st)
	s.closers = append(s.closers, func() { st.Close() })
	return st, nil
}

// coreChecks wires the closing Flush and CheckParity of a single core store.
func (s *stack) coreChecks(st *core.Store) {
	s.dirty = st.DirtyStripes
	s.flush = st.Flush
	s.check = func() (int, error) {
		bad, err := st.CheckParity()
		return len(bad), err
	}
}

// serve puts backend behind a server on a loopback port and returns
// the address.
func (s *stack) serve(backend server.Backend, key keyFunc) (string, error) {
	if s.rec != nil {
		backend = &backendShim{backend, s.rec.tap(spStore, key)}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := server.New(backend, server.Options{})
	done := make(chan struct{})
	go func() {
		srv.Serve(lis) // returns ErrServerClosed at Shutdown
		close(done)
	}()
	s.servers = append(s.servers, srv)
	s.closers = append(s.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		<-done
	})
	return lis.Addr().String(), nil
}

// buildNet is client → server → core over loopback TCP, one connection
// per client.
func buildNet(opts core.Options, model bool, clients int, rec *recorder, pool *devPool) (*stack, error) {
	s := &stack{root: "server", rec: rec, pool: pool}
	st, err := s.openCore(opts, model)
	if err != nil {
		return s, err
	}
	s.setGeo(st.Geometry())
	s.direct = st
	s.coreChecks(st)
	addr, err := s.serve(st, s.reqKey)
	if err != nil {
		return s, err
	}
	for i := 0; i < clients; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			return s, err
		}
		s.targets = append(s.targets, c)
		s.closers = append(s.closers, func() { c.Close() })
	}
	return s, nil
}

// ringDev is a memory device that core.Store.FailDisk cannot poison
// (it is not a core.Failer), so the lifecycle can wipe the member it
// failed and hand it back as the next replacement. A new 64 MiB device
// per cycle would be mapped page by page inside the timed rebuild, at
// whatever the host charges for a page fault that minute.
type ringDev struct{ mem *core.MemDevice }

func (d *ringDev) ReadAt(p []byte, off int64) (int, error)  { return d.mem.ReadAt(p, off) }
func (d *ringDev) WriteAt(p []byte, off int64) (int, error) { return d.mem.WriteAt(p, off) }
func (d *ringDev) Size() int64                              { return d.mem.Size() }
func (d *ringDev) Close() error                             { return nil }

// buildCore is the store alone, called in-process, over ringDevs with
// one spare.
func buildCore(opts core.Options, rec *recorder, pool *devPool) (*stack, error) {
	s := &stack{root: "core", rec: rec, pool: pool}
	for i := 0; i <= members; i++ {
		d := &ringDev{s.memDev(memberSize)}
		s.ring = append(s.ring, d)
		s.ringDev = append(s.ringDev, s.wrapDev(d, false, coreDevKey(opts)))
	}
	st, err := core.Open(s.ringDev[:members:members], s.newNVRAM(), opts)
	if err != nil {
		return s, err
	}
	s.stores = append(s.stores, st)
	s.closers = append(s.closers, func() { st.Close() })

	s.setGeo(st.Geometry())
	s.direct, s.targets = st, []target{st}
	s.coreChecks(st)
	return s, nil
}

// buildTier is client → tier → core in-process: a mirrored front of
// tierSlots extents over an AFRAID back on modelled devices.
func buildTier(clients int, rec *recorder, pool *devPool) (*stack, error) {
	s := &stack{root: "tier", rec: rec, pool: pool}
	back, err := s.openCore(tierBackOpts, true)
	if err != nil {
		return s, err
	}
	s.setGeo(back.Geometry())
	s.coreChecks(back)
	front := s.newDevs(2, tierSlots*(tier.DefaultExtentSize+16), false, noKey) // +16: the slot's tag
	ts, err := tier.Open(back, front, s.newNVRAM(), tier.Options{})
	if err != nil {
		return s, err
	}
	s.tier, s.direct = ts, ts
	s.flush = ts.Flush
	s.closers = append(s.closers, func() { ts.Close() })
	for i := 0; i < clients; i++ {
		s.targets = append(s.targets, ts)
	}
	return s, nil
}

// buildCluster is client → cluster.Volume → four loopback nodes, each a
// server over a one-device RAID 0 core store. The clients share the
// volume, as callers of one mounted volume would.
func buildCluster(clients int, rec *recorder, pool *devPool) (*stack, error) {
	s := &stack{root: "cluster", rec: rec, pool: pool}
	key := unitKey(clusterUnit, 0) // node offset / unit = cluster stripe, at every level below the volume
	ms := make([]cluster.Member, clusterNodes)
	for i := range ms {
		st, err := core.Open(s.newDevs(1, memberSize, false, key), nil, core.Options{Mode: core.Raid0})
		if err != nil {
			return s, err
		}
		s.stores = append(s.stores, st)
		s.closers = append(s.closers, func() { st.Close() })
		addr, err := s.serve(st, key)
		if err != nil {
			return s, err
		}
		ms[i] = cluster.Member{Addr: addr, Dial: func() (cluster.Node, error) {
			c, err := server.DialTimeout(addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			if rec == nil {
				return c, nil
			}
			return &nodeShim{c, rec.tap(spNode, key)}, nil
		}}
	}
	// MaxDirty is above the volume's stripe count, so parity is rebuilt
	// when the clients pause and by the closing Flush, never by the
	// pressure valve: with the default 256 the drain's workers and the
	// write path's inline drains race two clients and four servers for
	// two processors all window long (README.md, "What sizing found").
	vol, err := cluster.Open(ms, cluster.Options{StripeUnit: clusterUnit, HedgeDelay: -1, MaxDirty: 1 << 20, NV: s.newNVRAM()})
	if err != nil {
		return s, err
	}
	s.closers = append(s.closers, func() { vol.Close() })
	s.vol, s.direct = vol, vol
	s.setGeo(vol.Geometry())
	s.dirty = vol.DirtyStripes
	s.flush = func() error { return vol.Flush(context.Background()) }
	s.check = func() (int, error) {
		bad, skipped, err := vol.VerifyParity(context.Background())
		if err == nil && skipped > 0 {
			err = fmt.Errorf("cluster: %d stripes could not be verified", skipped)
		}
		return len(bad), err
	}
	for i := 0; i < clients; i++ {
		s.targets = append(s.targets, vol)
	}
	return s, nil
}
