package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
	"time"

	"afraid/internal/sim"
	"afraid/internal/trace"
)

// opKind is a kind of client operation; each kind has its own latency
// distribution and stands in the bounded figure with its own median.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opCommit   // lifecycle: ParityPoint over one chunk
	opDegraded // lifecycle: a read with one member failed
	numOpKinds
)

func kindOf(write bool) opKind {
	if write {
		return opWrite
	}
	return opRead
}

// sample is one completed, verified client operation.
type sample struct {
	end  time.Duration // completion, since the window opened
	lat  time.Duration
	kind opKind
}

// driven is what a driver hands back for one pass.
type driven struct {
	samples   []sample // all clients, unordered
	attempted int64
	failed    int64 // errored, refused, capped or mis-verified
	calls     int64 // every client call made, warm-up included
	callNS    int64 // and their total duration, issue to completion
	window    time.Duration
	late      []time.Duration // open loop: how late each request left the generator

	phases      map[string]phase // lifecycle only: time per cycle of each kind of pass
	opsPerCycle int              // lifecycle only: chunk reads and writes a cycle makes
}

// merge adds one client's share of a pass.
func (d *driven) merge(o driven) {
	d.samples = append(d.samples, o.samples...)
	d.late = append(d.late, o.late...)
	d.attempted += o.attempted
	d.failed += o.failed
	d.calls += o.calls
	d.callNS += o.callNS
}

// meanCall is the mean duration of a client call, in nanoseconds.
func (d driven) meanCall() float64 { return float64(d.callNS) / float64(max(d.calls, 1)) }

// phase is one kind of whole-array pass of the lifecycle workload.
type phase struct {
	bytes int64
	times []time.Duration // one per cycle
}

// pacing is what the passes of one run share: how long each warms up
// and measures, and the devices a closed stack leaves to the next.
type pacing struct {
	warm, window time.Duration
	pool         *devPool
}

// opGen makes one closed-loop client's operation stream from its seed.
type opGen struct {
	rng      *sim.RNG
	readFrac float64
	pick     func() int64 // byte offset of the next operation, drawn from rng
}

func (g *opGen) next() (write bool, off int64) {
	write = !g.rng.Bool(g.readFrac)
	return write, g.pick()
}

// scheduleHash collects the operation stream a run is made of.
type scheduleHash struct{ h hash.Hash }

func newScheduleHash() *scheduleHash { return &scheduleHash{sha256.New()} }

func (s *scheduleHash) op(at time.Duration, write bool, off, n int64) {
	var b [25]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(at))
	binary.LittleEndian.PutUint64(b[8:], uint64(off))
	binary.LittleEndian.PutUint64(b[16:], uint64(n))
	if write {
		b[24] = 1
	}
	s.h.Write(b[:])
}

func (s *scheduleHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// hashedOps is how many operations of each closed-loop client's stream
// go into the schedule hash: the stream is as long as the store is
// fast, its first few thousand operations identify it.
const hashedOps = 4096

// clientSpan records a client request over [off, off+n) that moved
// user bytes of user data (none for Flush, repair and check).
func clientSpan(st *stack, t0, t1 time.Time, write bool, off int64, n, user int, buf *spanBuf) {
	k0, k1 := st.reqKey(off, n)
	buf.add(span{kind: spClient, write: write, n: int32(user),
		start: int64(t0.Sub(st.rec.epoch)), end: int64(t1.Sub(st.rec.epoch)), k0: k0, k1: k1})
}

// closedLoop runs one goroutine per target, each sending its next
// operation when the previous one completed and was verified (zero
// think time), for warm + window. Only operations begun inside the
// window are sampled.
func closedLoop(st *stack, gens []*opGen, shadows []*shadow, opSize int64, p pacing) driven {
	var (
		mu  sync.Mutex
		out = driven{window: p.window}
		wg  sync.WaitGroup
	)
	open := time.Now().Add(p.warm)
	shut := open.Add(p.window)
	for c, tgt := range st.targets {
		wg.Add(1)
		go func(tgt target, g *opGen, sh *shadow) {
			defer wg.Done()
			var (
				local driven
				spans *spanBuf
				buf   = make([]byte, opSize)
			)
			if st.rec != nil {
				spans = st.rec.buf()
			}
			for {
				write, off := g.next()
				if write {
					sh.fill(buf, off, 1)
				}
				t0 := time.Now()
				if !t0.Before(shut) {
					break
				}
				var err error
				if write {
					_, err = tgt.WriteAt(buf, off)
				} else {
					_, err = tgt.ReadAt(buf, off)
				}
				t1 := time.Now()
				local.calls++
				local.callNS += int64(t1.Sub(t0))
				if spans != nil {
					clientSpan(st, t0, t1, write, off, len(buf), len(buf), spans)
				}
				ok := err == nil
				if ok && write {
					sh.commit(len(buf), off)
				} else if ok {
					ok = sh.check(buf, off)
				}
				if t0.Before(open) {
					continue
				}
				local.attempted++
				if !ok {
					local.failed++
					continue
				}
				local.samples = append(local.samples, sample{t1.Sub(open), t1.Sub(t0), kindOf(write)})
			}
			mu.Lock()
			out.merge(local)
			mu.Unlock()
		}(tgt, gens[c], shadows[c])
	}
	wg.Wait()
	return out
}

// openLoop replays one trace per target at its recorded times, whether
// or not earlier requests have completed. A request is timed from the
// moment it was due, so a stall is charged to every request it delays.
// Requests that touch a block another request of the stream still has
// in flight wait for it, in trace order, so each block keeps one writer
// and one right answer; the wait is inside the measured time.
func openLoop(st *stack, traces []*trace.Trace, shadows []*shadow, p pacing) driven {
	var (
		mu  sync.Mutex
		out = driven{window: p.window}
		wg  sync.WaitGroup
	)
	open := time.Now().Add(p.warm)
	for c, tgt := range st.targets {
		wg.Add(1)
		go func(tgt target, tr *trace.Trace, sh *shadow) {
			defer wg.Done()
			var (
				local       driven     // filled by the request goroutines
				lmu         sync.Mutex // guards local
				issued      int64      // generator's own counts
				capped      int64
				reqs        sync.WaitGroup
				outstanding atomic.Int64
				spans       *spanBuf
				busy        = make(map[int64]chan struct{}) // block → done of the last request on it
			)
			if st.rec != nil {
				spans = st.rec.buf()
			}
			for _, r := range tr.Records {
				due := open.Add(r.Time)
				sleepFor(time.Until(due))
				late := time.Since(due)
				issued++
				if outstanding.Load() >= maxOutstanding {
					capped++ // the store fell hopelessly behind the trace
					continue
				}
				buf := make([]byte, r.Length)
				var want []byte
				if r.Write {
					sh.fill(buf, r.Offset, 1)
					sh.commit(len(buf), r.Offset)
				} else {
					want = make([]byte, r.Length)
					sh.fill(want, r.Offset, 0)
				}
				// Chain behind every in-flight request on our blocks.
				var after []chan struct{}
				done := make(chan struct{})
				for b := r.Offset / sh.block; b <= (r.Offset+r.Length-1)/sh.block; b++ {
					if prev := busy[b]; prev != nil {
						after = append(after, prev)
					}
					busy[b] = done
				}
				outstanding.Add(1)
				reqs.Add(1)
				go func(r trace.Record) {
					defer reqs.Done()
					for _, ch := range after {
						<-ch
					}
					t0 := time.Now()
					var err error
					if r.Write {
						_, err = tgt.WriteAt(buf, r.Offset)
					} else {
						_, err = tgt.ReadAt(buf, r.Offset)
					}
					t1 := time.Now()
					close(done)
					outstanding.Add(-1)
					if spans != nil {
						clientSpan(st, t0, t1, r.Write, r.Offset, len(buf), len(buf), spans)
					}
					ok := err == nil && (r.Write || bytes.Equal(buf, want))
					lmu.Lock()
					defer lmu.Unlock()
					local.calls++
					local.callNS += int64(t1.Sub(t0))
					if !ok {
						local.failed++
						return
					}
					local.late = append(local.late, late)
					local.samples = append(local.samples, sample{t1.Sub(open), t1.Sub(due), kindOf(r.Write)})
				}(r)
			}
			reqs.Wait()
			local.attempted, local.failed = issued, local.failed+capped
			mu.Lock()
			out.merge(local)
			mu.Unlock()
		}(tgt, traces[c], shadows[c])
	}
	wg.Wait()
	return out
}

// exposure samples the store's unredundant-stripe count every 5 ms
// until stop is closed.
type exposure struct {
	samples, exposed int64
	dirtySum, max    int64
}

func watchExposure(dirty func() int64, stop <-chan struct{}) <-chan exposure {
	res := make(chan exposure, 1)
	go func() {
		var e exposure
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				res <- e
				return
			case <-tick.C:
				n := dirty()
				e.samples++
				e.dirtySum += n
				e.max = max(e.max, n)
				if n > 0 {
					e.exposed++
				}
			}
		}
	}()
	return res
}

// frac is the share of samples with at least one unredundant stripe.
func (e exposure) frac() float64 {
	if e.samples == 0 {
		return 0
	}
	return float64(e.exposed) / float64(e.samples)
}

// meanDirty is the time-averaged unredundant stripe count.
func (e exposure) meanDirty() float64 {
	if e.samples == 0 {
		return 0
	}
	return float64(e.dirtySum) / float64(e.samples)
}

const lifecycleChunk = 256 << 10

// lifecycle drives one core store through whole-array passes from one
// goroutine: write everything, make it redundant, read everything back,
// fail a disk, read everything degraded, repair onto a blank device,
// check parity. The array is made redundant chunk by chunk with
// ParityPoint, the paper's commit operation, and a closing Flush: parity
// rebuild is then timed in a thousand small calls, whose median a busy
// host does not move, like the reads and writes; repair and check are
// single calls and have no such figure. It repeats the cycle until the
// window has passed; cycles begun before the window opened are warm-up.
// Only the store calls are timed: making and checking content is the
// benchmark's own cost.
func lifecycle(st *stack, sh *shadow, p pacing) driven {
	store := st.stores[0]
	chunks := int((sh.end() + lifecycleChunk - 1) / lifecycleChunk)
	out := driven{window: p.window, phases: map[string]phase{}, opsPerCycle: 4 * chunks}
	var spans *spanBuf
	if st.rec != nil {
		spans = st.rec.buf()
	}
	all := int(store.Capacity())
	buf := make([]byte, lifecycleChunk)
	failed, spare := 2, members // ring positions of member 2 and of the blank replacement
	sampled := false
	var cycleOps time.Duration // timed store calls of the current cycle

	// call times one store call as a client request covering [off, off+n).
	call := func(write bool, off int64, n, user int, f func() error) (time.Duration, bool) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if spans != nil {
			clientSpan(st, t0, t1, write, off, n, user, spans)
		}
		cycleOps += t1.Sub(t0)
		out.calls++
		out.callNS += int64(t1.Sub(t0))
		if sampled {
			out.attempted++
			if err != nil {
				out.failed++
			}
		}
		return t1.Sub(t0), err == nil
	}
	// sweep reads, writes or commits the whole store in chunks.
	sweep := func(name string, kind opKind) time.Duration {
		var total time.Duration
		for off := int64(0); off < sh.end(); off += lifecycleChunk {
			b := buf[:min(lifecycleChunk, sh.end()-off)]
			user := len(b)
			var f func() error
			switch kind {
			case opWrite:
				sh.fill(b, off, 1)
				f = func() error { _, err := store.WriteAt(b, off); return err }
			case opCommit:
				user = 0
				f = func() error { return store.ParityPoint(off, int64(len(b))) }
			default:
				f = func() error { _, err := store.ReadAt(b, off); return err }
			}
			d, ok := call(kind == opWrite || kind == opCommit, off, len(b), user, f)
			total += d
			switch {
			case ok && kind == opWrite:
				sh.commit(len(b), off)
			case ok && kind != opCommit && !sh.check(b, off):
				ok = false
				if sampled {
					out.failed++
				}
			}
			if ok && sampled {
				out.samples = append(out.samples, sample{lat: d, kind: kind})
			}
		}
		out.addPhase(name, sampled, int64(all), total)
		return total
	}
	whole := func(name string, bytes int64, f func() error) {
		d, _ := call(true, 0, all, 0, f)
		out.addPhase(name, sampled, bytes, d)
	}

	open := time.Now().Add(p.warm)
	shut := open.Add(p.window)
	for cycles := 0; ; {
		now := time.Now()
		if cycles > 0 && !now.Before(shut) {
			break
		}
		sampled = !now.Before(open)
		cycleOps = 0
		sweep("write", opWrite)
		commits := sweep("commit", opCommit)
		closing, _ := call(true, 0, all, 0, store.Flush) // nothing is left for it but to say so
		out.addPhase("flush", sampled, int64(all), commits+closing)
		sweep("read", opRead)
		if err := store.FailDisk(2); err != nil && sampled {
			out.failed++
		}
		sweep("degraded_read", opDegraded)
		whole("rebuild", st.geo.DiskSize, func() error {
			lost, err := store.RepairDisk(2, st.ringDev[spare])
			if err == nil && lost.Bytes() > 0 {
				err = fmt.Errorf("repair of a flushed array lost %d bytes", lost.Bytes())
			}
			return err
		})
		wipe(st.ring[failed].mem) // the failed member is the next cycle's blank replacement
		failed, spare = spare, failed
		whole("check", int64(all), func() error {
			bad, err := store.CheckParity()
			if err == nil && len(bad) > 0 {
				err = fmt.Errorf("%d inconsistent stripes after repair", len(bad))
			}
			return err
		})
		out.addPhase("cycle", sampled, 0, cycleOps)
		if sampled {
			cycles++
		}
	}
	return out
}

func (d *driven) addPhase(name string, sampled bool, bytes int64, t time.Duration) {
	if !sampled {
		return
	}
	ph := d.phases[name]
	ph.bytes = bytes
	ph.times = append(ph.times, t)
	d.phases[name] = ph
}
