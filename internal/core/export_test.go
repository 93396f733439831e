package core

import "afraid/internal/testutil"

// WithClock returns opts with the store's clock replaced by c.
func WithClock(opts Options, c *testutil.Clock) Options {
	opts.now = c.Now
	return opts
}
