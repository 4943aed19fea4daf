// Package memo is the keyed single-flight memo behind every cache in
// the repository: the runner's result and plan caches and the
// service's flights.
package memo

import (
	"context"
	"fmt"
	"sync"

	"heteropart/internal/apierr"
	"heteropart/internal/metrics"
)

// Options tunes a Group. The zero value keeps every value and admits
// every run.
type Options struct {
	// Retain bounds the completed values kept, evicting the oldest
	// first; 0 keeps everything.
	Retain int
	// Admit, when non-nil, runs before a Do would start a new run
	// (never for a join or a recall); a non-nil error is returned to
	// that caller and nothing starts. It runs under the group's lock,
	// so it must be quick and must not call back into the group.
	Admit func() error
	// OnPanic, when non-nil, observes each panic recovered from fn.
	OnPanic func(any)
	// Hits counts joins and recalls, Misses started runs (nil = off).
	Hits, Misses *metrics.Counter
}

// call is one run of fn for a key. waiters and finished are guarded by
// Group.mu; val and err are written once, before done closes.
type call[V any] struct {
	done     chan struct{}
	cancel   context.CancelFunc
	waiters  int
	finished bool
	val      V
	err      error
}

// Group is a keyed single-flight memo of values of type V. The zero
// value is not usable; call New.
type Group[V any] struct {
	opts   Options
	base   context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	calls map[string]*call[V]
	// kept lists the keys of completed entries, oldest first; tracked
	// only under a retention bound.
	kept []string
}

// New builds a group.
func New[V any](opts Options) *Group[V] {
	base, cancel := context.WithCancel(context.Background())
	return &Group[V]{opts: opts, base: base, cancel: cancel, calls: make(map[string]*call[V])}
}

// Do returns the value for key: recalled when a run for it succeeded
// and is still kept, shared when one is running, otherwise computed by
// a new run of fn on its own goroutine, under a context derived from
// the group rather than from any caller. shared reports a join or a
// recall. A caller whose ctx ends first detaches and gets an error
// wrapping apierr.ErrCanceled and ctx's own error. Errors (panics
// included) reach the callers waiting at that moment and are never
// kept.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, shared bool, err error) {
	if err := apierr.FromContext(ctx); err != nil {
		return v, false, err
	}
	g.mu.Lock()
	c, shared := g.calls[key]
	switch {
	case shared && c.finished:
		g.mu.Unlock()
		g.opts.Hits.Inc()
		return c.val, true, nil
	case shared:
		g.opts.Hits.Inc()
	default:
		if g.opts.Admit != nil {
			if err := g.opts.Admit(); err != nil {
				g.mu.Unlock()
				return v, false, err
			}
		}
		rctx, cancel := context.WithCancel(g.base)
		c = &call[V]{done: make(chan struct{}), cancel: cancel}
		g.calls[key] = c
		go g.run(rctx, key, c, fn)
		g.opts.Misses.Inc()
	}
	c.waiters++
	g.mu.Unlock()
	select {
	case <-c.done:
		return c.val, shared, c.err
	case <-ctx.Done():
		g.leave(key, c)
		return v, shared, apierr.Canceled(ctx.Err())
	}
}

// run executes fn for c and settles the entry: a success is kept (if
// c is still the key's entry), anything else leaves the map before the
// waiters wake.
func (g *Group[V]) run(ctx context.Context, key string, c *call[V], fn func(context.Context) (V, error)) {
	defer func() {
		if p := recover(); p != nil {
			if g.opts.OnPanic != nil {
				g.opts.OnPanic(p)
			}
			c.err = fmt.Errorf("memo: recovered panic: %v", p)
		}
		g.mu.Lock()
		cancel := c.cancel
		c.finished, c.cancel = true, nil // a kept value need not pin its context
		if g.calls[key] == c {
			switch {
			case c.err != nil:
				delete(g.calls, key)
			case g.opts.Retain > 0:
				g.kept = append(g.kept, key)
				for len(g.kept) > g.opts.Retain {
					delete(g.calls, g.kept[0])
					g.kept = g.kept[1:]
				}
			}
		}
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	c.val, c.err = fn(ctx)
}

// leave detaches one waiter from c. The last waiter of a running call
// removes it from the map and only then cancels it, both under the
// lock, so at most one uncanceled run per key ever exists.
func (g *Group[V]) leave(key string, c *call[V]) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c.waiters--
	if c.waiters == 0 && !c.finished {
		delete(g.calls, key) // an unfinished call is always its key's entry
		c.cancel()
	}
}

// Len reports the live and kept entries.
func (g *Group[V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// Close cancels every running call. Kept values stay recallable.
func (g *Group[V]) Close() { g.cancel() }
