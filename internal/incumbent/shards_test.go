package incumbent

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tagged is a shard result that names its shard, so a test can tell
// which of several tied shards the fold kept.
type tagged struct {
	shard int
	v     float64
}

// funcSearch adapts three functions to a Search; nil final never stops
// the fold.
type funcSearch[R any] struct {
	scan   func(sh *Shards, worker, shard int) (R, bool, error)
	better func(a, b R) bool
	final  func(R) bool
}

func (f funcSearch[R]) Scan(sh *Shards, w, shard int) (R, bool, error) { return f.scan(sh, w, shard) }
func (f funcSearch[R]) Better(a, b R) bool                             { return f.better(a, b) }
func (f funcSearch[R]) Final(r R) bool                                 { return f.final != nil && f.final(r) }

func lessV(a, b tagged) bool { return a.v < b.v }

func lessInt(a, b int) bool { return a < b }

// TestRunFoldsInShardOrder: ties keep the earliest shard, and the fold
// stops at the first best that final accepts, whatever the worker count.
func TestRunFoldsInShardOrder(t *testing.T) {
	vals := []float64{5, 3, 4, 3, 1, 1, 2}
	for _, workers := range []int{1, 2, 4} {
		scan := func(_ *Shards, _, shard int) (tagged, bool, error) {
			return tagged{shard, vals[shard]}, shard != 2, nil
		}
		got, ok, err := Run[tagged](workers, len(vals), funcSearch[tagged]{scan, lessV, nil})
		if err != nil || !ok || got.shard != 4 {
			t.Errorf("workers=%d: Run = (%v, %v, %v), want shard 4", workers, got, ok, err)
		}
		got, ok, err = Run[tagged](workers, len(vals), funcSearch[tagged]{scan, lessV, func(r tagged) bool { return r.v <= 3 }})
		if err != nil || !ok || got.shard != 1 {
			t.Errorf("workers=%d: Run with final = (%v, %v, %v), want shard 1", workers, got, ok, err)
		}
	}
}

// TestRunSerialIsInline: one shard runs on the caller's goroutine with a
// nil *Shards, whose bound is +Inf and which never decides a shard.
func TestRunSerialIsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	got, ok, err := Run[int](4, 1, funcSearch[int]{scan: func(sh *Shards, w, shard int) (int, bool, error) {
		if sh != nil || w != 0 || shard != 0 {
			t.Errorf("serial scan got (%v, %d, %d), want (nil, 0, 0)", sh, w, shard)
		}
		if sh.Decided(0) || sh.Bound() < 1e308 {
			t.Error("nil Shards decided a shard or holds a finite bound")
		}
		sh.Tighten(1)
		sh.ReachedLB(0)
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("serial scan runs with %d goroutines, want the caller's %d", n, before)
		}
		return 7, true, nil
	}, better: lessInt})
	if err != nil || !ok || got != 7 {
		t.Fatalf("Run = (%v, %v, %v), want (7, true, nil)", got, ok, err)
	}
}

// TestRunErrorStopsWorkers: the first error is returned and later
// shards are not scanned.
func TestRunErrorStopsWorkers(t *testing.T) {
	boom := errors.New("boom")
	var scanned atomic.Int64
	_, _, err := Run[int](1, 64, funcSearch[int]{scan: func(_ *Shards, _, shard int) (int, bool, error) {
		scanned.Add(1)
		if shard == 3 {
			return 0, false, boom
		}
		return shard, true, nil
	}, better: lessInt})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if n := scanned.Load(); n != 4 {
		t.Fatalf("one worker scanned %d shards after failing on shard 3, want 4", n)
	}
}

// TestReachedLBDecidesLaterShards: shards after the lowest lower-bound
// shard are decided, earlier ones are not.
func TestReachedLBDecidesLaterShards(t *testing.T) {
	var decided [8]atomic.Bool
	Each(1, 8, func(sh *Shards, _, shard int) error {
		if shard == 5 {
			sh.ReachedLB(5)
			sh.ReachedLB(6) // a later shard never loosens the cutoff
		}
		decided[shard].Store(sh.Decided(shard))
		return nil
	})
	for shard := range decided {
		if shard > 5 {
			continue // skipped by the claim loop: never scanned
		}
		if decided[shard].Load() {
			t.Errorf("shard %d decided before reaching the cutoff", shard)
		}
	}
}

// TestWorkerPanicSurfacesOnCaller: a panic in a shard function reaches
// the caller's goroutine at every worker count — natively on the inline
// serial path, as a *WorkerPanic carrying the original value and the
// worker's stack from worker goroutines — and no worker goroutine
// outlives the call.
func TestWorkerPanicSurfacesOnCaller(t *testing.T) {
	const k = 5
	cases := []struct {
		name             string
		workers, nshards int
	}{
		{"inline", 1, 1},
		{"par1", 1, 16},
		{"par4", 4, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			want := "shard function failed"
			got := func() (r any) {
				defer func() { r = recover() }()
				Run[int](tc.workers, tc.nshards, funcSearch[int]{scan: func(_ *Shards, _, shard int) (int, bool, error) {
					if shard == min(k, tc.nshards-1) {
						panic(want)
					}
					return shard, true, nil
				}, better: lessInt})
				return nil
			}()
			if got == nil {
				t.Fatal("the caller observed no panic")
			}
			if tc.nshards == 1 {
				if got != want {
					t.Fatalf("inline panic value %v, want %q", got, want)
				}
			} else {
				wp, ok := got.(*WorkerPanic)
				if !ok {
					t.Fatalf("panic value %T, want *WorkerPanic", got)
				}
				if wp.Value != want {
					t.Fatalf("WorkerPanic.Value = %v, want %q", wp.Value, want)
				}
				if !strings.Contains(string(wp.Stack), "TestWorkerPanicSurfacesOnCaller") {
					t.Fatalf("WorkerPanic.Stack lacks the panicking shard function:\n%s", wp.Stack)
				}
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the panic, %d before: a worker leaked", n, before)
			}
		})
	}
}

// TestPartitionShardsCountsAndOrder: one worker gets the whole space;
// more workers get prefixes in enumeration order, at least 8 per worker
// when the space allows.
func TestPartitionShardsCountsAndOrder(t *testing.T) {
	if ps := PartitionShards(6, 4, 1); len(ps) != 1 || ps[0].Assign != nil || ps[0].Used != 0 {
		t.Fatalf("one worker: %v, want the one empty whole-space prefix", ps)
	}
	ps := PartitionShards(6, 4, 2)
	if len(ps) < 16 {
		t.Fatalf("two workers: %d shards, want >= 16", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		a, b := ps[i-1].Assign, ps[i].Assign
		j := 0
		for j < len(a) && a[j] == b[j] {
			j++
		}
		if j == len(a) || a[j] > b[j] {
			t.Fatalf("prefixes %v and %v out of enumeration order", a, b)
		}
	}
	// Two items into at most two blocks: the whole space is {00, 01},
	// so any worker count stops at k = items.
	if ps := PartitionShards(2, 2, 8); len(ps) != 2 {
		t.Fatalf("tiny space: %d shards, want 2", len(ps))
	}
}
