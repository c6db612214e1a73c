package incumbent

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Shards is the state the workers of one partitioned search share: the
// shard claim counter, the objective Bound, and the lowest index of a
// shard whose incumbent reached the search's lower bound. Shard index
// order is the serial visit order, so once shard k reaches the lower
// bound every shard after k is irrelevant to the fold of Run.
//
// A nil *Shards is the serial search — one worker over one whole-space
// shard — whose bound is +Inf and whose shard is never decided. Kernels
// poll a shared Shards every few dozen search steps against a local
// copy of the bound: a stale bound only prunes less, so polling never
// changes a result.
type Shards struct {
	next    atomic.Int64
	bound   Bound
	lbShard atomic.Int64
}

// Bound returns the best objective value any shard has reached.
func (s *Shards) Bound() float64 {
	if s == nil {
		return math.Inf(1)
	}
	return s.bound.Load()
}

// Tighten publishes a shard-local improvement to every other shard.
func (s *Shards) Tighten(v float64) {
	if s != nil {
		s.bound.Tighten(v)
	}
}

// Decided reports whether an earlier shard already reached the lower
// bound (or the search failed), so the shard may stop scanning.
func (s *Shards) Decided(shard int) bool {
	return s != nil && int64(shard) > s.lbShard.Load()
}

// ReachedLB records that the shard's incumbent reached the search's
// lower bound: every later shard is decided.
func (s *Shards) ReachedLB(shard int) {
	if s == nil {
		return
	}
	for {
		old := s.lbShard.Load()
		if old <= int64(shard) || s.lbShard.CompareAndSwap(old, int64(shard)) {
			return
		}
	}
}

// A WorkerPanic is a panic raised by a shard function on a worker
// goroutine, re-raised on the caller's goroutine once every worker has
// stopped. Value is the value passed to panic; Stack is the worker's
// stack at the panic.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error prints the value and the worker's stack, so an unrecovered
// re-raise still shows where the worker panicked.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// AsWorkerPanic wraps a value recovered on a worker goroutine, with the
// stack of the recovering call. A *WorkerPanic a nested worker raised
// passes through unchanged, keeping the innermost value and stack.
func AsWorkerPanic(r any) *WorkerPanic {
	if wp, ok := r.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Value: r, Stack: debug.Stack()}
}

// Each calls fn for every shard 0..n-1 on up to workers goroutines.
// Workers claim shard indices in order from the shared counter, so a
// worker that drains a cheap shard immediately claims the next; shards
// after a ReachedLB shard are skipped. The first error stops every
// worker and is returned (the first in worker order when several fail).
// A panic in fn stops every worker and is re-raised on the caller's
// goroutine as a *WorkerPanic after all workers have returned.
func Each(workers, n int, fn func(sh *Shards, worker, shard int) error) error {
	sh := &Shards{}
	sh.bound.reset()
	sh.lbShard.Store(math.MaxInt64)
	workers = max(1, min(workers, n))
	errs := make([]error, workers)
	panics := make([]*WorkerPanic, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = AsWorkerPanic(r)
					sh.lbShard.Store(-1)
				}
			}()
			for {
				shard := int(sh.next.Add(1)) - 1
				if shard >= n {
					return
				}
				if sh.Decided(shard) {
					continue
				}
				if err := fn(sh, w, shard); err != nil {
					errs[w] = err
					sh.lbShard.Store(-1)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// A Search is one partitioned exact search as Run drives it.
type Search[R any] interface {
	// Scan returns the local best of one shard under the search's
	// serial install rule, or found = false when the shard holds no
	// admissible candidate.
	Scan(sh *Shards, worker, shard int) (best R, found bool, err error)
	// Better reports whether a strictly improves on b.
	Better(a, b R) bool
	// Final reports whether no later shard can strictly improve on r,
	// so the fold may stop there.
	Final(r R) bool
}

// Run executes one partitioned exact search; every exact kernel goes
// through it. It folds the shard results of s in shard order with
// s.Better (strict improvement replaces, ties keep the earlier shard)
// and stops the fold at the first best s.Final accepts. The result is
// therefore the serial scan's result at every worker count.
//
// One shard is the serial search: s.Scan runs once, inline on the
// caller's goroutine, with a nil *Shards, and Run allocates nothing.
// More shards run through Each on up to workers goroutines.
func Run[R any](workers, nshards int, s Search[R]) (R, bool, error) {
	if nshards <= 1 {
		return s.Scan(nil, 0, 0)
	}
	results := make([]R, nshards)
	founds := make([]bool, nshards)
	err := Each(workers, nshards, func(sh *Shards, w, shard int) error {
		var err error
		results[shard], founds[shard], err = s.Scan(sh, w, shard)
		return err
	})
	var best R
	if err != nil {
		return best, false, err
	}
	found := false
	for i := range results {
		if founds[i] && (!found || s.Better(results[i], best)) {
			best, found = results[i], true
			if s.Final(best) {
				break
			}
		}
	}
	return best, found, nil
}

// shardTarget is the number of shards aimed at per worker: enough that
// uneven subtree sizes even out through the claim counter, few enough
// that per-shard setup stays negligible against the subtree scans.
const shardTarget = 8

// Prefix is one fixed restricted-growth prefix: the first len(Assign)
// decisions of a set-partition enumeration, naming Used blocks. It roots
// one shard's subtree.
type Prefix struct {
	Assign []int
	Used   int
}

// wholeSpace is the one shard of a one-worker search: the empty prefix.
// It is shared and read-only.
var wholeSpace = []Prefix{{}}

// PartitionShards splits the set partitions of items elements into at
// most maxBlocks blocks (restricted-growth strings) into shards for
// workers: the prefixes of the smallest length k whose count reaches
// shardTarget per worker (or k = items), in enumeration order, so the
// shards scanned in index order visit exactly the serial enumeration's
// sequence. One worker gets the single empty prefix, the whole space,
// without allocating.
func PartitionShards(items, maxBlocks, workers int) []Prefix {
	if workers <= 1 || items <= 0 {
		return wholeSpace
	}
	var out []Prefix
	for k := 1; ; k++ {
		out = out[:0]
		prefix := make([]int, k)
		var rec func(i, used int)
		rec = func(i, used int) {
			if i == k {
				out = append(out, Prefix{Assign: append([]int(nil), prefix...), Used: used})
				return
			}
			for b := 0; b <= used && b < maxBlocks; b++ {
				prefix[i] = b
				next := used
				if b == used {
					next++
				}
				rec(i+1, next)
			}
		}
		rec(0, 0)
		if len(out) >= shardTarget*workers || k >= items {
			return out
		}
	}
}
