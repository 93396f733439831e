package testutil

import (
	"sync/atomic"
	"time"
)

// Clock is a layer's clock a test holds: it stands still but for Advance
// and, where Step is set, moves Step after every read. It counts its
// reads. Set Step before the layer under test opens.
type Clock struct {
	Step  time.Duration
	ns    atomic.Int64
	reads atomic.Int64
}

// Now is the clock's reading; the layer reads it as its own.
func (c *Clock) Now() time.Time {
	c.reads.Add(1)
	return time.Unix(0, c.ns.Add(int64(c.Step))-int64(c.Step))
}

// Advance moves the clock on by d.
func (c *Clock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// Reads is how often the clock has been read.
func (c *Clock) Reads() int64 { return c.reads.Load() }
