package bench

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind is the boundary a span was recorded at. The order is the
// nesting order: a client request contains node calls (cluster only),
// which contain store calls (a server.Backend call), which contain
// device and NVRAM calls.
type spanKind uint8

const (
	spClient spanKind = iota
	spNode
	spStore
	spDevice
	spNVRAM
	numKinds
)

var kindNames = [numKinds]string{"client", "node", "store", "device", "nvram"}

// span is one call across a layer boundary. Shims cannot pass a request
// identifier through the store (BlockDevice and NVRAM take no context),
// so a span is linked to the request that caused it by time containment
// plus the stripes it touches: k0..k1 is the stripe range of the call
// (k0 > k1 when the call has none, as for NVRAM). The stripe lock makes
// the link exact: background work on a stripe cannot overlap a
// foreground request on the same stripe.
type span struct {
	kind       spanKind
	write      bool
	n          int32 // bytes moved
	start, end int64 // ns since the recorder's epoch
	k0, k1     int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory, one buffer per shim so recording
// threads do not contend, until the run ends.
type recorder struct {
	epoch time.Time
	on    atomic.Bool // shims pass straight through while off (set-up, verification)

	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf grows by whole chunks, never by copying: a traced pass
// records millions of spans and must not pay for moving them.
type spanBuf struct {
	mu     sync.Mutex
	chunks [][]span
}

const spanChunk = 1 << 14

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) buf() *spanBuf {
	b := &spanBuf{}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == spanChunk {
		b.chunks = append(b.chunks, make([]span, 0, spanChunk))
		last++
	}
	b.chunks[last] = append(b.chunks[last], s)
	b.mu.Unlock()
}

// all returns every recorded span, ordered by start time.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.bufs {
		n += len(b.chunks) * spanChunk
	}
	out := make([]span, 0, n)
	for _, b := range r.bufs {
		b.mu.Lock()
		for _, c := range b.chunks {
			out = append(out, c...)
		}
		b.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	return out
}

// attribution is what the spans of one traced pass add up to.
type attribution struct {
	ops    int64           // client requests (roots)
	rootNS int64           // their total duration
	userB  int64           // user bytes they moved
	selfNS [numKinds]int64 // foreground time by deepest active span kind; sums to rootNS
	bgNS   [numKinds]int64 // time of spans no request caused (scrub, drain, migrate)
	calls  [numKinds]int64 // all spans, foreground and background
	reads  int64           // device reads
	writes int64           // device writes
	devB   int64           // device bytes moved
	devRd  int64           // total device read time
	parent []int32         // per span of all(): index of its root, -1 background, -2 is a root
}

// maxOutstanding bounds how far back the parent search looks: the
// open-loop generator never has more requests in flight than this.
const maxOutstanding = 64

// attribute links every span to the client request that caused it and
// splits each request's duration among the kinds: at every instant the
// time belongs to the deepest span open then, so parallel children are
// counted once and the shares of one request sum to its duration.
func attribute(spans []span) attribution {
	a := attribution{parent: make([]int32, len(spans))}
	var roots []int32
	for i, s := range spans {
		a.calls[s.kind]++
		if s.kind == spClient {
			roots = append(roots, int32(i))
			a.parent[i] = -2
			a.ops++
			a.rootNS += s.dur()
			a.userB += int64(s.n)
		}
		if s.kind == spDevice {
			a.devB += int64(s.n)
			if s.write {
				a.writes++
			} else {
				a.reads++
				a.devRd += s.dur()
			}
		}
	}
	children := make([][]int32, len(roots))
	for i, s := range spans {
		if s.kind == spClient {
			continue
		}
		a.parent[i] = -1
		// Roots are in start order: the last one starting at or before
		// s, or one of the few still open before it, is the parent.
		hi := sort.Search(len(roots), func(j int) bool { return spans[roots[j]].start > s.start })
		for j := hi - 1; j >= 0 && j >= hi-maxOutstanding; j-- {
			r := spans[roots[j]]
			if r.end >= s.end && (s.k0 > s.k1 || r.k0 > r.k1 || (r.k0 <= s.k1 && s.k0 <= r.k1)) {
				a.parent[i] = roots[j]
				children[j] = append(children[j], int32(i))
				break
			}
		}
		if a.parent[i] == -1 {
			a.bgNS[s.kind] += s.dur()
		}
	}
	var iv [][2]int64
	for j, kids := range children {
		// cover is the time during which a child of depth >= from was open.
		cover := func(from, to spanKind) int64 {
			iv = iv[:0]
			for _, c := range kids {
				if k := spans[c].kind; k >= from && k <= to {
					iv = append(iv, [2]int64{spans[c].start, spans[c].end})
				}
			}
			return unionLen(iv)
		}
		dev := cover(spDevice, spDevice)
		leaf := cover(spDevice, spNVRAM) // device and NVRAM share the deepest level
		store := cover(spStore, spNVRAM)
		node := cover(spNode, spNVRAM)
		a.selfNS[spDevice] += dev
		a.selfNS[spNVRAM] += leaf - dev
		a.selfNS[spStore] += store - leaf
		a.selfNS[spNode] += node - store
		a.selfNS[spClient] += spans[roots[j]].dur() - node
	}
	return a
}

// unionLen is the total length covered by the intervals. It reorders iv.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// maxFileSpans caps the span file: the metrics use every span, the
// file is for reading a stretch of the run by eye.
const maxFileSpans = 100_000

type fileSpan struct {
	Kind    string  `json:"kind"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int32   `json:"parent"` // index of the client span that caused it; -1 background; -2 a client span
	Write   bool    `json:"write,omitempty"`
	Bytes   int32   `json:"bytes,omitempty"`
}

// writeSpanFile writes the first maxFileSpans spans as JSON.
func writeSpanFile(path, workload string, spans []span, parent []int32) error {
	n := min(len(spans), maxFileSpans)
	out := struct {
		Workload string     `json:"workload"`
		Total    int        `json:"total_spans"`
		Spans    []fileSpan `json:"spans"`
	}{workload, len(spans), make([]fileSpan, n)}
	for i := range out.Spans {
		s := spans[i]
		out.Spans[i] = fileSpan{kindNames[s.kind], float64(s.start) / 1e3, float64(s.end) / 1e3, parent[i], s.write, s.n}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
