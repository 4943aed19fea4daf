package memo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteropart/internal/apierr"
)

// TestGroupRunAfterCancel is semantics rule 2: once the last waiter of
// a run has left, a later caller starts a fresh run instead of joining
// the one being torn down — even while that run is still winding down.
func TestGroupRunAfterCancel(t *testing.T) {
	g := New[int](Options{})
	release := make(chan struct{})
	defer close(release)
	var runs atomic.Int32
	started := make(chan struct{}, 1)
	fn := func(ctx context.Context) (int, error) {
		n := int(runs.Add(1))
		if n == 1 {
			started <- struct{}{}
			<-ctx.Done()
			<-release // the canceled run lingers past its caller
			return 0, ctx.Err()
		}
		return n, nil
	}

	actx, cancelA := context.WithCancel(context.Background())
	aerr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(actx, "k", fn)
		aerr <- err
	}()
	<-started
	cancelA()
	if err := <-aerr; !errors.Is(err, apierr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("caller A error = %v, want its own cancellation", err)
	}

	bctx, cancelB := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelB()
	v, shared, err := g.Do(bctx, "k", fn)
	if err != nil || shared || v != 2 {
		t.Fatalf("caller B after A's cancel: v=%d shared=%t err=%v, want a fresh run 2", v, shared, err)
	}
}

// TestGroupAdmitOnlyOnStart: the admission hook runs for a call that
// would start a run and for nothing else; a refusal starts nothing.
func TestGroupAdmitOnlyOnStart(t *testing.T) {
	refuse := errors.New("full")
	var admits int
	open := true
	g := New[int](Options{Admit: func() error {
		admits++
		if !open {
			return refuse
		}
		return nil
	}})
	ctx := context.Background()
	hold := make(chan struct{})
	joined := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "a", func(context.Context) (int, error) { <-hold; return 1, nil })
		joined <- err
	}()
	for g.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	open = false
	g.mu.Unlock()
	if _, _, err := g.Do(ctx, "b", func(context.Context) (int, error) { return 2, nil }); !errors.Is(err, refuse) {
		t.Fatalf("refused start: err = %v, want the hook's error", err)
	}
	close(hold)
	if v, shared, err := g.Do(ctx, "a", nil); err != nil || !shared || v != 1 {
		t.Fatalf("join/recall of a: v=%d shared=%t err=%v", v, shared, err)
	}
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if admits != 2 {
		t.Errorf("admission hook ran %d times, want 2 (one start, one refusal)", admits)
	}
	if _, ok := g.calls["b"]; ok {
		t.Error("a refused call left an entry")
	}
}

// runRecord is what the property test knows about one run of fn.
type runRecord struct {
	key string
	ctx context.Context
}

// TestGroupInterleavings drives random interleavings of Do, caller
// cancellation, fn errors and fn panics over a few keys, and checks
// the group's invariants:
//   - at most one run per key holds an uncanceled context at any time
//     (a canceled run may still be winding down beside its successor);
//   - every caller gets a value of a successful run of its key, an
//     error of a run of its key, or its own context's error — never
//     another caller's cancellation;
//   - no canceled, failed or panicked entry is left behind;
//   - the retention bound holds.
func TestGroupInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { groupInterleavings(t, seed) })
	}
}

func groupInterleavings(t *testing.T, seed int64) {
	const (
		keys    = 5
		retain  = 2
		callers = 200
	)
	var (
		mu        sync.Mutex
		live      = map[int]runRecord{} // runs whose fn has not returned
		succeeded = map[int]string{}    // run id -> key, for successful runs
		nextID    int
		panics    atomic.Int64
		recov     atomic.Int64
	)
	g := New[int](Options{Retain: retain, OnPanic: func(any) { recov.Add(1) }})
	checkRetention := func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		kept := 0
		for _, c := range g.calls {
			if c.finished {
				kept++
			}
		}
		if kept > retain {
			t.Errorf("%d completed entries kept, retention bound %d", kept, retain)
		}
	}

	// newFn returns one caller's fn: its behaviour (succeed, fail,
	// panic, or block until canceled) is drawn from the caller's rng.
	newFn := func(rng *rand.Rand, key string) func(context.Context) (int, error) {
		mode := rng.Intn(5)
		delay := time.Duration(rng.Intn(300)) * time.Microsecond
		return func(ctx context.Context) (int, error) {
			mu.Lock()
			nextID++
			id := nextID
			live[id] = runRecord{key, ctx}
			// Cancellations and new runs happen under the group's lock,
			// so holding it makes the count exact.
			g.mu.Lock()
			uncanceled := 0
			for _, r := range live {
				if r.key == key && r.ctx.Err() == nil {
					uncanceled++
				}
			}
			g.mu.Unlock()
			if uncanceled > 1 {
				t.Errorf("key %s: %d runs hold an uncanceled context", key, uncanceled)
			}
			mu.Unlock()
			defer func() {
				mu.Lock()
				delete(live, id)
				mu.Unlock()
			}()
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return 0, fmt.Errorf("run %d of %s: %w", id, key, ctx.Err())
			}
			switch mode {
			case 0:
				return 0, fmt.Errorf("run %d of %s: failed", id, key)
			case 1:
				panics.Add(1)
				panic(fmt.Sprintf("run %d of %s: panicked", id, key))
			case 2:
				<-ctx.Done()
				return 0, fmt.Errorf("run %d of %s: %w", id, key, ctx.Err())
			}
			mu.Lock()
			succeeded[id] = key
			mu.Unlock()
			return id, nil
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		key := fmt.Sprint("k", rng.Intn(keys))
		fn := newFn(rng, key)
		patience := time.Duration(rng.Intn(600)) * time.Microsecond
		start := time.Duration(rng.Intn(2000)) * time.Microsecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(start)
			ctx, cancel := context.WithTimeout(context.Background(), patience)
			defer cancel()
			v, _, err := g.Do(ctx, key, fn)
			checkRetention()
			switch {
			case err == nil:
				mu.Lock()
				k, ok := succeeded[v]
				mu.Unlock()
				if !ok || k != key {
					t.Errorf("caller of %s got value %d, not a successful run of its key", key, v)
				}
			case errors.Is(err, apierr.ErrCanceled):
				if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
					t.Errorf("caller of %s got cancellation %v without its own context ending", key, err)
				}
			default:
				if !strings.Contains(err.Error(), "of "+key+":") {
					t.Errorf("caller of %s got an error of another key: %v", key, err)
				}
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("caller of %s read a canceled run's error: %v", key, err)
				}
			}
		}()
	}
	wg.Wait()

	// Quiesce: canceled runs wind down, then nothing may be running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(live)
		mu.Unlock()
		g.mu.Lock()
		running := 0
		for _, c := range g.calls {
			if !c.finished {
				running++
			}
		}
		g.mu.Unlock()
		if n == 0 && running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d runs still live, %d entries unfinished after every caller left", n, running)
		}
		time.Sleep(time.Millisecond)
	}
	checkRetention()
	g.mu.Lock()
	for key, c := range g.calls {
		if c.err != nil {
			t.Errorf("entry %s kept with error %v", key, c.err)
		}
	}
	g.mu.Unlock()
	if panics.Load() != recov.Load() {
		t.Errorf("%d panics, OnPanic saw %d", panics.Load(), recov.Load())
	}
	// Every key still answers: nothing left behind poisons it.
	for k := 0; k < keys; k++ {
		key := fmt.Sprint("k", k)
		if _, _, err := g.Do(context.Background(), key, func(context.Context) (int, error) { return -1, nil }); err != nil {
			t.Errorf("key %s after the storm: %v", key, err)
		}
	}
}
