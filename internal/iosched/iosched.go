// Package iosched implements the host device driver's request queue
// used in the experiments: a CLOOK elevator behind an outstanding-request
// limiter, matching the paper's configuration ("the host device driver
// used the clook policy, the back-end device drivers inside the array
// used fcfs"; the back-end FCFS queues are internal/array's per-disk
// queues).
package iosched

import (
	"fmt"
	"sort"
)

// Request is a schedulable unit: an opaque payload ordered by position.
type Request struct {
	Pos     int64 // position key (array or disk byte address)
	Payload interface{}
}

// CLOOK is a circular-LOOK elevator: it serves requests in ascending
// position order from the current head position, and when none remain
// ahead it jumps back to the lowest-positioned request and continues
// ascending. Requests at equal positions are served in arrival order.
type CLOOK struct {
	q    []Request // sorted by (Pos, seq)
	seqs []uint64
	seq  uint64
	head int64
}

// NewCLOOK returns an empty CLOOK queue with head position 0.
func NewCLOOK() *CLOOK { return &CLOOK{} }

// Len returns the queue length.
func (c *CLOOK) Len() int { return len(c.q) }

// Push inserts r in sorted order.
func (c *CLOOK) Push(r Request) {
	seq := c.seq
	c.seq++
	i := sort.Search(len(c.q), func(i int) bool {
		if c.q[i].Pos != r.Pos {
			return c.q[i].Pos > r.Pos
		}
		return c.seqs[i] > seq
	})
	c.q = append(c.q, Request{})
	c.seqs = append(c.seqs, 0)
	copy(c.q[i+1:], c.q[i:])
	copy(c.seqs[i+1:], c.seqs[i:])
	c.q[i] = r
	c.seqs[i] = seq
}

// Pop returns the next request at or beyond the head position, wrapping
// to the lowest position when none remain ahead, and advances the head.
func (c *CLOOK) Pop() Request {
	if len(c.q) == 0 {
		panic("iosched: Pop from empty CLOOK queue")
	}
	i := sort.Search(len(c.q), func(i int) bool { return c.q[i].Pos >= c.head })
	if i == len(c.q) {
		i = 0 // wrap: sweep restarts at the lowest position
	}
	r := c.q[i]
	copy(c.q[i:], c.q[i+1:])
	copy(c.seqs[i:], c.seqs[i+1:])
	c.q[len(c.q)-1] = Request{}
	c.q = c.q[:len(c.q)-1]
	c.seqs = c.seqs[:len(c.seqs)-1]
	c.head = r.Pos
	return r
}

// Limiter caps the number of outstanding operations, queueing the excess
// behind a CLOOK queue. The paper limits concurrently active client
// requests inside the array to the number of physical disks.
type Limiter struct {
	sched       *CLOOK
	outstanding int
	max         int
}

// NewLimiter wraps sched with an outstanding-op cap of max (>= 1).
func NewLimiter(sched *CLOOK, max int) *Limiter {
	if max < 1 {
		panic(fmt.Sprintf("iosched: limiter max %d must be >= 1", max))
	}
	return &Limiter{sched: sched, max: max}
}

// Submit offers a request. It returns the request to start now (admit)
// if a slot is free, otherwise queues it and returns false.
func (l *Limiter) Submit(r Request) (Request, bool) {
	if l.outstanding < l.max {
		l.outstanding++
		return r, true
	}
	l.sched.Push(r)
	return Request{}, false
}

// Done signals completion of one outstanding request and returns the
// next queued request to start, if any.
func (l *Limiter) Done() (Request, bool) {
	if l.outstanding <= 0 {
		panic("iosched: Done without outstanding request")
	}
	l.outstanding--
	if l.sched.Len() > 0 && l.outstanding < l.max {
		l.outstanding++
		return l.sched.Pop(), true
	}
	return Request{}, false
}
