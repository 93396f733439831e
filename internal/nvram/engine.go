package nvram

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The deferred-redundancy engine is the paper's mechanism, once, for
// every layer that defers redundancy (DESIGN.md, "Deferred-redundancy
// engine"). A unit — a stripe of a disk array, a stripe of a cluster
// volume — is marked in the marking memory *before* its data is written
// without redundancy, is made redundant again when the client has been
// idle for a while or too many units are exposed, and only then is
// unmarked: clean → marked (durable before Mark returns) → claimed
// (inside one callback at a time) → clean, or → held. The engine owns the
// bitmap and its durability, the triggers, the claims and holds, the
// drains and the exposure counters; the client supplies where the image
// is kept (Persister) and how one unit is made redundant (MakeRedundant).
//
// The same image carries each member's stale units: a member's copy of a
// unit that was written around it (its node was down) or is not yet
// rebuilt (it is a replacement under repair). A stale mark follows the
// same rule as a mark — durable before MarkStale returns, cleared lazily —
// and the client trusts no stale copy until it has rewritten it.

// Persister keeps the marking-memory image across crashes. Store must be
// durable before it returns (the paper's marking memory is
// battery-backed RAM; a file plus fsync is the software equivalent).
type Persister interface {
	// Load returns the last stored image, or an empty one (nil, nil
	// included) when none was.
	Load() ([]byte, error)
	// Store replaces the image. The slice is the engine's own buffer,
	// rewritten for the next image: Store must not keep it.
	Store([]byte) error
}

// Outcome is a MakeRedundant callback's verdict on one unit.
type Outcome int

const (
	// Done: the unit is redundant. The engine unmarks it and commits —
	// unless a Mark arrived after Proceed, which stands.
	Done Outcome = iota
	// Skip: the unit stays marked and a later pass retries it (a member
	// failed, a node is down, Proceed said no).
	Skip
	// Hold: the unit stays marked and no drain retries it until it is
	// marked again — making it redundant now would seal in damage.
	Hold
)

// Config is what a client tells the engine. None of it is a user-facing
// knob: clients fill it from their own options.
type Config struct {
	Units   int64     // size of the marking memory
	Members int       // members a unit spans, whose stale units the image carries; at most 64
	NV      Persister // nil keeps the marks in memory only

	Idle      time.Duration // quiet time before background work starts
	Threshold int64         // backlog that forces work under load; 0 = never
	Workers   int           // drain-all / drain-range concurrency

	// MakeRedundant makes c.Unit redundant. It takes the client's own lock
	// for the unit, asks c.Proceed(), and only on true does the work. An
	// error stops the drain that issued the call.
	MakeRedundant func(ctx context.Context, c Claim) (Outcome, error)
	// Episode, when set, is told how long each background episode (a run
	// of units made redundant back to back) lasted.
	Episode func(time.Duration)
}

// MaxInline bounds how many units one foreground write is ever held
// hostage making redundant. The valve still applies back-pressure — a
// flood of writers each pays for a few rebuilds — but one victim request
// can no longer stall indefinitely while its peers keep re-dirtying
// units; the rest of the backlog belongs to the background loop.
const MaxInline = 4

// maxMembers bounds Config.Members: a MemberSet holds every member.
const maxMembers = 64

// MemberSet is a set of members, bit m for member m: those stale on one
// unit (State).
type MemberSet uint64

// Has reports whether member m is in the set.
func (s MemberSet) Has(m int) bool { return s&(1<<m) != 0 }

// EngineStats are the engine's exposure and activity counters.
type EngineStats struct {
	Marked    int64 // units unredundant now
	HighWater int64 // most units ever unredundant at once: the widest exposure window

	Drained uint64 // units the engine made redundant and unmarked
	Forced  uint64 // of those, under threshold pressure (background or inline)
	Inline  uint64 // callbacks run inline by the write-path valve

	IdleEpisodes   uint64 // background episodes begun on idle detection
	ForcedEpisodes uint64 // background episodes begun over the threshold
	Preempts       uint64 // idle work abandoned to fresh foreground I/O

	Persists  uint64 // images stored (group commit batches changes)
	Recovered bool   // the image was unusable at open: everything was marked
}

// claimState is what happened to a claimed unit while it was claimed.
type claimState uint8

const (
	claimRunning   claimState = iota
	claimRemarked             // Mark arrived after Proceed: the unit's mark outlives this rebuild
	claimPreempted            // Proceed refused: foreground I/O since the idle sample
	claimGone                 // Proceed refused: someone else already unmarked the unit
)

// Engine is one marking memory and the machinery that empties it.
type Engine struct {
	cfg Config

	mu       sync.Mutex // guards everything below; never held across a client call or a Store
	marks    *Bitmap
	stale    []*Bitmap            // per member, its stale units
	staleOn  MemberSet            // members with a stale unit: none stores the bare marks
	found    *Bitmap              // marks found in the image at load, or distrusted since; nil if none. Invariant: found ⊆ marks
	hold     map[int64]bool       // Invariant: hold ⊆ marked; any mark/unmark drops the entry
	claims   map[int64]claimState // units inside (or on their way into) a callback
	released *sync.Cond           // a claim was dropped
	lastIO   time.Time
	gen      uint64 // bumped on foreground I/O to preempt idle work
	stats    EngineStats

	// Group commit. A store in flight releases mu, so concurrent markers
	// pile their changes into the bitmap and the next leader's snapshot
	// covers them all with one NVRAM write. Every change to marks takes a
	// generation; one that is not waited for (Clear) leaves durable behind
	// latest until the next store, whoever asks for it.
	committed *sync.Cond
	storing   bool
	durable   uint64 // highest change generation an image has reached NVRAM with
	latest    uint64 // latest change generation applied to marks and stale units
	marked    uint64 // latest generation that set a mark or a stale unit: what a Mark waits for
	storeErr  error  // outcome of the store that reached durable
	img       []byte // the image snapshot being stored; the storing leader's alone
	closed    bool   // Close ran and no mark since: images are flagged clean

	wake chan struct{} // nudges the background loop (capacity 1: more pending kicks add nothing)
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewEngine loads the marking memory. An unusable image — garbage, the
// wrong size, the wrong member count — triggers the paper's marking-memory
// failure recovery: every unit is marked, no member has a stale unit,
// EngineStats.Recovered is set and the all-marked image is stored. The
// background loop does not run until Start.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Members < 0 || cfg.Members > maxMembers {
		return nil, fmt.Errorf("nvram: %d members, want at most %d", cfg.Members, maxMembers)
	}
	e := &Engine{
		cfg:    cfg,
		marks:  NewBitmap(cfg.Units),
		stale:  make([]*Bitmap, cfg.Members),
		hold:   make(map[int64]bool),
		claims: make(map[int64]claimState),
		lastIO: time.Now(),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	for m := range e.stale {
		e.stale[m] = NewBitmap(cfg.Units)
	}
	e.released = sync.NewCond(&e.mu)
	e.committed = sync.NewCond(&e.mu)
	if cfg.NV == nil {
		return e, nil
	}
	img, err := cfg.NV.Load()
	if err != nil {
		return nil, fmt.Errorf("nvram: loading marking memory: %w", err)
	}
	if len(img) == 0 {
		return e, nil
	}
	if maps, clean, err := decodeImage(img, cfg.Units, cfg.Members); err == nil {
		e.marks = maps[0]
		e.stats.HighWater = e.marks.Count()
		if len(maps) > 1 {
			e.stale = maps[1:]
			for m, bm := range e.stale {
				if bm.Count() > 0 {
					e.staleOn |= 1 << m
				}
			}
		}
		// An image Close stored is flagged clean: no write was in flight, so
		// its marks stand only for what they were set for, and none is
		// inherited. The flag is spent here — the image is stored again
		// without it — so a crash of this incarnation reads as a crash.
		if clean {
			return e, e.Commit()
		}
		e.inherit()
		return e, nil
	}
	for u := int64(0); u < cfg.Units; u++ {
		e.marks.Mark(u)
	}
	e.stats.Recovered = true
	e.stats.HighWater = cfg.Units
	e.inherit()
	return e, e.Commit()
}

// The image has two forms. While no member has a stale unit it is the
// marks' Bitmap encoding alone. Otherwise it is marksMagic, the member
// count (uint32), then the marks and each member's stale units, in member
// order, every one a Bitmap encoding behind its length (uint32); all
// integers are little-endian. The marks' encoding carries cleanBit in
// either form.
const marksMagic = "AFCLMK1\n"

// cleanBit, in the last header byte of the marks' encoding, is the top bit
// of its unit count — set by no valid count — and flags an image Close
// stored.
const cleanBit = 0x80

// appendImage appends the image of the marking memory as it stands.
// Caller holds mu.
func (e *Engine) appendImage(dst []byte) []byte {
	if e.staleOn == 0 {
		return e.appendMarks(dst)
	}
	size := uint32(8 + 8*len(e.marks.words)) // every map's encoding
	dst = append(dst, marksMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.stale)))
	dst = binary.LittleEndian.AppendUint32(dst, size)
	dst = e.appendMarks(dst)
	for _, bm := range e.stale {
		dst = binary.LittleEndian.AppendUint32(dst, size)
		dst = bm.AppendTo(dst)
	}
	return dst
}

// appendMarks appends the marks' encoding, flagged clean after Close.
func (e *Engine) appendMarks(dst []byte) []byte {
	start := len(dst)
	dst = e.marks.AppendTo(dst)
	if e.closed {
		dst[start+7] |= cleanBit
	}
	return dst
}

// decodeImage reads an image of either form for units and members: the
// marks, then — unless the image is bare — each member's stale units.
func decodeImage(img []byte, units int64, members int) (maps []*Bitmap, clean bool, err error) {
	blobs := [][]byte{img}
	if rest, ok := bytes.CutPrefix(img, []byte(marksMagic)); ok {
		if len(rest) < 4 || binary.LittleEndian.Uint32(rest) != uint32(members) {
			return nil, false, fmt.Errorf("nvram: image not for %d members", members)
		}
		rest = rest[4:]
		blobs = make([][]byte, 1+members)
		for i := range blobs {
			if len(rest) < 4 || uint32(len(rest)-4) < binary.LittleEndian.Uint32(rest) {
				return nil, false, fmt.Errorf("nvram: truncated map %d", i)
			}
			n := binary.LittleEndian.Uint32(rest)
			blobs[i], rest = rest[4:4+n], rest[4+n:]
		}
		if len(rest) != 0 {
			return nil, false, fmt.Errorf("nvram: %d bytes past the last map", len(rest))
		}
	}
	if b := blobs[0]; len(b) >= 8 && b[7]&cleanBit != 0 {
		clean = true
		b[7] &^= cleanBit
	}
	maps = make([]*Bitmap, len(blobs))
	for i, b := range blobs {
		if maps[i], err = Deserialize(b); err != nil {
			return nil, false, err
		}
		if got := maps[i].Stripes(); got != units {
			return nil, false, fmt.Errorf("nvram: map %d for %d units, want %d", i, got, units)
		}
	}
	return maps, clean, nil
}

// inherit records the marks standing at load as found there (State).
func (e *Engine) inherit() {
	if e.marks.Count() > 0 {
		e.found = &Bitmap{words: slices.Clone(e.marks.words), stripes: e.marks.stripes, count: e.marks.count}
	}
}

// Close stores the image a last time, flagged clean, so that the next load
// inherits none of its marks. Call it after Stop, once the client has
// stopped writing: the flag says no mark stands for a write in flight. A
// Mark after it stores the image again without the flag. While an
// inherited mark stands the image goes unflagged: the next load must
// inherit it again.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = e.found == nil || e.found.Count() == 0
	e.latest++
	return e.commit()
}

// Distrust makes unit's standing mark inherited (State), as if found at
// load, until the unit is made redundant: the client can no longer vouch
// for what the mark stands for. An unmarked unit is left alone.
func (e *Engine) Distrust(unit int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.marks.IsMarked(unit) {
		return
	}
	if e.found == nil {
		e.found = NewBitmap(e.cfg.Units)
	}
	e.found.Mark(unit)
}

// Start launches the background loop: every Idle/4, and whenever woken,
// it makes units redundant while the client is idle or over Threshold.
func (e *Engine) Start() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		t := time.NewTicker(max(e.cfg.Idle/4, time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
			case <-e.wake:
			}
			e.Poll()
		}
	}()
}

// Stop ends the background loop and waits for it. Marks stay as they
// are; drains already running finish their current unit.
func (e *Engine) Stop() {
	close(e.stop)
	e.wg.Wait()
}

// Touch records foreground I/O: it restarts the idle clock and preempts
// idle work that has not yet passed Proceed.
func (e *Engine) Touch() {
	e.mu.Lock()
	e.lastIO = time.Now()
	e.gen++
	e.mu.Unlock()
}

// Mark records that unit is about to lose its redundancy and returns
// once an image showing the mark is in NVRAM — the caller's data write
// comes after. Marking a marked unit stores nothing, but it does wait for
// the store of whoever set the mark, if that is still in flight: the bit
// in memory is not yet the mark in NVRAM. Either way a hold on the unit
// ends (the write may replace what made it undrainable) and a rebuild in
// flight will not unmark it.
func (e *Engine) Mark(unit int64) error {
	return e.MarkRange(unit, unit+1)
}

// MarkRange is Mark for every unit of [lo, hi) behind one store: a
// request that spans many units makes all its marks durable at once. A
// caller that takes its per-unit locks only afterwards marks each unit
// again under its lock — a no-op unless a drain unmarked it in between.
func (e *Engine) MarkRange(lo, hi int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	changed := e.closed // the image says no write is in flight: store one that does not
	e.closed = false
	for u := lo; u < hi; u++ {
		if e.marks.Mark(u) {
			changed = true
		}
		delete(e.hold, u)
		if st, ok := e.claims[u]; ok && st == claimRunning {
			e.claims[u] = claimRemarked
		}
	}
	if c := e.marks.Count(); c > e.stats.HighWater {
		e.stats.HighWater = c
	}
	return e.commitMarks(changed)
}

// commitMarks returns once every mark and stale unit set so far, this
// caller's (changed) or found standing, is in NVRAM. The generations past
// the last of them are clears, which nobody waits for. Caller holds mu.
func (e *Engine) commitMarks(changed bool) error {
	if changed || e.storeErr != nil { // a failed store may have left any mark behind: store again
		e.latest++
		e.marked = e.latest
	}
	return e.commitTo(e.marked)
}

// MarkStale records that member's copies of the units of [lo, hi) are
// stale — about to be written around, or not yet rebuilt — and returns
// once an image showing it is in NVRAM, as MarkRange does for marks.
func (e *Engine) MarkStale(member int, lo, hi int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	changed := false
	for u := lo; u < hi; u++ {
		if e.stale[member].Mark(u) {
			e.staleOn |= 1 << member
			changed = true
		}
	}
	return e.commitMarks(changed)
}

// ClearStale records that member's copy of unit is current again: the
// client rewrote it. Like Clear it changes memory only until the next
// store, and it reports whether the copy was stale.
func (e *Engine) ClearStale(member int, unit int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.stale[member].Unmark(unit) {
		return false
	}
	if e.stale[member].Count() == 0 {
		e.staleOn &^= 1 << member
	}
	e.latest++
	return true
}

// StaleCount returns how many units member has stale.
func (e *Engine) StaleCount(member int) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stale[member].Count()
}

// StaleMembers returns the members that have a stale unit.
func (e *Engine) StaleMembers() MemberSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.staleOn
}

// StaleUnits lists the units member has stale, ascending.
func (e *Engine) StaleUnits(member int) []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stale[member].Marked()
}

// Clear unmarks a unit the client made redundant by its own means (a
// write that stored the whole stripe, a repair). The change is in memory
// only — an image that still shows the mark merely costs a spurious
// rebuild — until the next store: a Mark, a Commit, a Sync, or the end of
// a requested drain. It reports whether the unit was marked.
func (e *Engine) Clear(unit int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.unmark(unit)
}

func (e *Engine) unmark(unit int64) bool {
	delete(e.hold, unit)
	if !e.marks.Unmark(unit) {
		return false
	}
	if e.found != nil {
		e.found.Unmark(unit)
	}
	e.latest++
	return true
}

// Commit returns once an image at least as new as every change made
// before the call is in NVRAM.
func (e *Engine) Commit() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.latest++
	return e.commit()
}

// Sync returns once the NVRAM image equals the marks in memory, storing
// one only if a Clear (or a failed store) left it behind. DrainAll and
// DrainRange end with it; a client calls it when it closes.
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.storeErr != nil {
		e.latest++ // the last image never arrived: store again
	}
	return e.commit()
}

// commit is the group commit: the call returns once a store whose
// snapshot included every change made so far has completed. One caller
// at a time leads — it snapshots the bitmap, releases mu for the NVRAM
// write, and wakes the others — so N concurrent markers cost ~1 store
// instead of N, and images reach NVRAM in generation order. Caller holds
// mu; it is released and reacquired inside.
func (e *Engine) commit() error { return e.commitTo(e.latest) }

// commitTo is commit for the changes through generation want only.
func (e *Engine) commitTo(want uint64) error {
	if e.cfg.NV == nil {
		return nil
	}
	for e.durable < want {
		if e.storing {
			e.committed.Wait()
			continue
		}
		e.storing = true
		goal := e.latest // the snapshot covers every generation through goal
		e.img = e.appendImage(e.img[:0])
		e.mu.Unlock()
		err := e.cfg.NV.Store(e.img)
		if err != nil {
			err = fmt.Errorf("nvram: storing marking memory: %w", err)
		}
		e.mu.Lock()
		e.storing = false
		e.durable, e.storeErr = goal, err
		e.stats.Persists++
		e.committed.Broadcast()
	}
	// storeErr is the outcome of the store that reached (or passed) our
	// generation; a later successful store also covers our change.
	return e.storeErr
}

// State reports, in one lock trip, whether unit is marked, whether the
// mark was inherited, and which members hold a stale copy of it. A mark is
// inherited when it was found in the image at load, or distrusted since
// (Distrust), and has stood ever since. An inherited mark may stand for a
// write the last incarnation had in flight when it stopped, so it vouches
// for nothing the client keeps in sync either; it ends as every mark does,
// when the unit is made redundant.
func (e *Engine) State(unit int64) (marked, inherited bool, stale MemberSet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	marked = e.marks.IsMarked(unit)
	for on := e.staleOn; on != 0; on &= on - 1 {
		if m := bits.TrailingZeros64(uint64(on)); e.stale[m].IsMarked(unit) {
			stale |= 1 << m
		}
	}
	return marked, marked && e.found != nil && e.found.IsMarked(unit), stale
}

// Count returns the number of unredundant units.
func (e *Engine) Count() int64 { return e.Stats().Marked }

// Marked lists the unredundant units, ascending — the exposure set.
func (e *Engine) Marked() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.marks.Marked()
}

// Held lists the units no drain will retry until they are marked again,
// ascending.
func (e *Engine) Held() []int64 { return e.heldIn(0, e.cfg.Units) }

func (e *Engine) heldIn(lo, hi int64) []int64 {
	e.mu.Lock()
	out := make([]int64, 0, len(e.hold))
	for u := range e.hold {
		if lo <= u && u < hi {
			out = append(out, u)
		}
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Marked = e.marks.Count()
	return st
}

// Claim is the engine's hand-off of one unit to MakeRedundant.
type Claim struct {
	Unit int64

	e      *Engine
	idle   bool   // background work begun because the client was idle: yields to foreground I/O
	gen    uint64 // the foreground generation when it was decided on
	forced bool   // begun over Threshold, in the background or inline
}

// Proceed reports whether the rebuild should go ahead. Call it holding
// the client's lock for the unit: it is false when the unit is no longer
// marked, and — for idle work only — when foreground I/O has arrived
// since the engine sampled the idle clock. Without that re-check a write
// landing between the sample and the lock would have its fresh mark
// consumed as "idle" work, competing with the very I/O the idle policy
// exists to yield to. Forced and requested drains skip it: they must
// make progress under sustained writes, or the backlog (and a Flush
// behind it) could be starved forever.
func (c Claim) Proceed() bool {
	e := c.e
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case !e.marks.IsMarked(c.Unit):
		e.claims[c.Unit] = claimGone
	case c.idle && e.gen != c.gen:
		e.claims[c.Unit] = claimPreempted
		e.stats.Preempts++
	default:
		// Writers of this unit are behind the client's lock now, so marks
		// made up to here are covered by the rebuild that follows.
		e.claims[c.Unit] = claimRunning
		return true
	}
	return false
}

// backlog is what the triggers count: marked units a drain could still
// make redundant. Held units are marked but undrainable; they must not
// keep an episode spinning or the valve open. Caller holds mu.
func (e *Engine) backlog() int64 { return e.marks.Count() - int64(len(e.hold)) }

// claimNext claims the lowest marked unit in [lo, hi) that is neither
// held nor claimed. The claim keeps concurrent drainers off each other's
// units — without it every worker would pick the same first mark and
// serialize on the client's lock. Caller holds mu.
func (e *Engine) claimNext(lo, hi int64) (int64, bool) {
	for {
		u, ok := e.marks.scan(lo, hi)
		if !ok {
			return 0, false
		}
		if _, busy := e.claims[u]; !busy && !e.hold[u] {
			e.claims[u] = claimRunning
			return u, true
		}
		lo = u + 1
	}
}

// settled is how a claim ended, for the drain that made it.
type settled int

const (
	moved  settled = iota // progress: the unit is redundant, or gone, or re-marked, or newly held
	passed                // Skip: the unit stays marked and the drain goes on to the next
	halted                // preempted, or the callback failed: the drain stops
)

// run hands one claimed unit to the callback, then settles the claim.
func (e *Engine) run(ctx context.Context, c Claim) (settled, error) {
	out, err := e.cfg.MakeRedundant(ctx, c)
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.claims[c.Unit]
	delete(e.claims, c.Unit)
	e.released.Broadcast()
	switch {
	case err != nil || st == claimPreempted:
		return halted, err
	case st == claimGone:
		return moved, nil // the client cleared the unit itself meanwhile
	case out == Skip:
		return passed, nil
	case st == claimRemarked:
		// A write landed once the callback let go of the unit: its mark
		// stands, for a later pass, and may have replaced what a Hold saw.
		return moved, nil
	case out == Hold:
		e.hold[c.Unit] = true
		return moved, nil
	}
	if !e.unmark(c.Unit) {
		return moved, nil
	}
	e.stats.Drained++
	if c.forced {
		e.stats.Forced++
	}
	return moved, e.commit()
}

// Poll runs one background episode, as the loop does on every tick and
// wake: make units redundant, lowest first, while the client stays idle
// or over Threshold. A unit whose callback says Skip is walked past — its
// trouble is its own (a node its stripe needs is gone) and must not
// shield the marked units above it from the drain. The walk goes round
// again for units marked behind it, and the episode ends when a whole
// walk settles nothing, the idle window closes, foreground I/O preempts
// an idle rebuild, or the callback fails.
func (e *Engine) Poll() {
	var started time.Time
	built, from, progressed := 0, int64(0), false
	for {
		select {
		case <-e.stop:
			return
		default:
		}
		e.mu.Lock()
		n := e.backlog()
		forced := e.cfg.Threshold > 0 && n > e.cfg.Threshold
		c := Claim{e: e, idle: !forced, gen: e.gen, forced: forced}
		ok := n > 0 && (forced || time.Since(e.lastIO) >= e.cfg.Idle)
		if ok {
			if c.Unit, ok = e.claimNext(from, e.cfg.Units); !ok && progressed {
				progressed = false
				c.Unit, ok = e.claimNext(0, e.cfg.Units)
			}
		}
		if ok && started.IsZero() {
			started = time.Now()
			if forced {
				e.stats.ForcedEpisodes++
			} else {
				e.stats.IdleEpisodes++
			}
		}
		e.mu.Unlock()
		if !ok {
			break
		}
		how, _ := e.run(context.Background(), c)
		if how == halted {
			break
		}
		from = c.Unit + 1
		if how == moved {
			built++
			progressed = true
		}
	}
	if built > 0 && e.cfg.Episode != nil {
		e.cfg.Episode(time.Since(started))
	}
}

// Kick is the write path's pressure valve, called after a foreground
// write: past Threshold it wakes the background loop, and past twice
// Threshold it makes up to MaxInline units redundant in the caller's
// context, like the paper's policy of starting parity updates under
// load. Units whose callback says Skip are walked past, as in Poll. It
// allocates nothing and looks at one mark per callback, however long the
// backlog.
func (e *Engine) Kick() {
	th := e.cfg.Threshold
	if th <= 0 {
		return
	}
	e.mu.Lock()
	n := e.backlog()
	e.mu.Unlock()
	if n <= th {
		return
	}
	select {
	case e.wake <- struct{}{}:
	default:
	}
	if n <= 2*th {
		return
	}
	for from, built := int64(0), 0; built < MaxInline; {
		c := Claim{e: e, forced: true}
		e.mu.Lock()
		ok := e.backlog() > th
		if ok {
			c.Unit, ok = e.claimNext(from, e.cfg.Units)
		}
		e.mu.Unlock()
		if !ok {
			return
		}
		how, _ := e.run(context.Background(), c)
		if how == halted {
			return
		}
		from = c.Unit + 1
		if how == moved {
			built++
			e.mu.Lock()
			e.stats.Inline++
			e.mu.Unlock()
		}
	}
}

// DrainResult says what a requested drain had to leave marked.
type DrainResult struct {
	Skipped int64   // units whose callback said Skip on the last sweep
	Held    []int64 // held units in scope, ascending
}

// DrainAll makes every marked unit redundant — the whole-array parity
// point — Workers at a time. Units re-marked by concurrent writers get
// another sweep; it returns when nothing drainable is left, or when a
// sweep made no unit redundant and the callback skipped some (the
// caller knows why: a failed member, a down node) — and the NVRAM image
// equals the marks in memory (Sync).
func (e *Engine) DrainAll(ctx context.Context) (DrainResult, error) {
	for {
		done, res, err := e.sweep(ctx, 0, e.cfg.Units)
		if err != nil {
			return res, err
		}
		e.mu.Lock()
		left := e.backlog()
		e.mu.Unlock()
		if left == 0 || (done == 0 && res.Skipped > 0) {
			return res, e.Sync()
		}
	}
}

// DrainRange makes the units of [lo, hi) that are marked now redundant,
// and returns once they are (or are reported in the result) and the
// NVRAM image says so.
func (e *Engine) DrainRange(ctx context.Context, lo, hi int64) (DrainResult, error) {
	_, res, err := e.sweep(ctx, lo, hi)
	if err == nil {
		err = e.Sync()
	}
	return res, err
}

// sweep visits every marked unit of [lo, hi) once, in ascending order,
// with up to Workers callbacks in flight. A unit another drainer has
// claimed is set aside, so that the workers pass it and stay busy, and
// is taken last: the sweep then waits for the claim's release (or ctx's
// end) and looks again, so it never returns nil past a unit it did not
// see settled.
func (e *Engine) sweep(ctx context.Context, lo, hi int64) (done int64, res DrainResult, err error) {
	defer context.AfterFunc(ctx, func() {
		e.mu.Lock()
		e.released.Broadcast()
		e.mu.Unlock()
	})()
	from := lo
	var busy []int64
	next := func() (int64, bool) {
		e.mu.Lock()
		defer e.mu.Unlock()
		for {
			u, ok := e.marks.scan(from, hi)
			if !ok {
				break
			}
			from = u + 1
			if _, taken := e.claims[u]; taken {
				busy = append(busy, u)
			} else if !e.hold[u] {
				e.claims[u] = claimRunning
				return u, true
			}
		}
		for len(busy) > 0 && ctx.Err() == nil {
			u := busy[0]
			if _, taken := e.claims[u]; taken {
				e.released.Wait()
				continue
			}
			busy = busy[1:]
			if e.marks.IsMarked(u) && !e.hold[u] {
				e.claims[u] = claimRunning
				return u, true
			}
		}
		return 0, false
	}
	err = pool(ctx, int(min(int64(e.cfg.Workers), hi-lo)), next, func(u int64) error {
		how, err := e.run(ctx, Claim{e: e, Unit: u})
		e.mu.Lock()
		if how == moved {
			done++
		} else {
			res.Skipped++
		}
		e.mu.Unlock()
		return err
	})
	if err == nil && len(busy) > 0 {
		err = ctx.Err() // cancelled while waiting on another drainer's claim
	}
	res.Held = e.heldIn(lo, hi)
	return done, res, err
}

// ForEach runs do(i) for every i in [lo, hi) on up to workers goroutines
// striding a shared cursor; with one worker (or one item) it runs on the
// caller's goroutine and spawns nothing. The first error, do's or ctx's,
// stops every worker before its next item and is returned.
func ForEach(ctx context.Context, workers int, lo, hi int64, do func(i int64) error) error {
	var cur atomic.Int64
	cur.Store(lo)
	next := func() (int64, bool) {
		i := cur.Add(1) - 1
		return i, i < hi
	}
	return pool(ctx, int(min(int64(workers), hi-lo)), next, do)
}

// pool is the one worker pool the drains and sweeps share: each worker
// pulls its next item from next until it reports none left.
func pool(ctx context.Context, workers int, next func() (int64, bool), do func(int64) error) error {
	var (
		once   sync.Once
		failed atomic.Bool
		first  error
	)
	work := func() {
		for !failed.Load() {
			// ctx is checked before next, which may claim: a claimed item is
			// always run.
			err := ctx.Err()
			if err == nil {
				i, ok := next()
				if !ok {
					return
				}
				err = do(i)
			}
			if err != nil {
				once.Do(func() { first = err })
				failed.Store(true)
			}
		}
	}
	if workers <= 1 {
		work()
		return first
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return first
}
