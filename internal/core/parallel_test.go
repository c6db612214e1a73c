package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// TestParallelSolveIdentity is the core-level byte-identity corpus:
// Solve with any Parallelism setting — explicit worker counts, auto mode
// above and below the crossover — must return exactly the serial
// solution, on every graph kind and objective (polynomial cells ignore
// the option; NP-hard cells run the partitioned search).
func TestParallelSolveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 40; trial++ {
		pr := randomHardishProblem(rng)
		pr.Objective = Objective(rng.Intn(4))
		if pr.Objective.Bounded() {
			pr.Bound = float64(1 + rng.Intn(20)/2)
		}
		want, err := Solve(pr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{0, 1, 2, 4, -1, -3} {
			opts := Options{Parallelism: par}
			got, err := Solve(pr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d par=%d: parallel solve diverges\n got %+v\nwant %+v\nfor %+v",
					trial, par, got, want, pr)
			}
		}
	}
}

// TestParallelPreparedIdentity: a prepared solver answering solves at
// alternating parallelism — SetParallelism switches between solves, each
// solve runs on scratch a solve at another count left behind — must stay
// byte-identical to serial SolveContext throughout.
func TestParallelPreparedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ctx := context.Background()
	prepared := 0
	for trial := 0; trial < 40; trial++ {
		pr := randomHardishProblem(rng)
		ps, ok := Prepare(pr, Options{Parallelism: 3})
		if !ok {
			continue
		}
		prepared++
		type solveCase struct {
			obj   Objective
			bound float64
			par   int
		}
		cases := []solveCase{
			{MinPeriod, 0, 3},
			{MinLatency, 0, 0},
			{LatencyUnderPeriod, float64(1+rng.Intn(6)) / 2, 2},
			{PeriodUnderLatency, float64(1+rng.Intn(8)) / 2, 4},
		}
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		// Repeats re-run each solve at a different count.
		cases = append(cases, cases...)
		for i, c := range cases {
			if i >= len(cases)/2 {
				c.par = 1 // replay the same solves serially
			}
			ps.SetParallelism(c.par)
			got, err := ps.Solve(ctx, c.obj, c.bound)
			if err != nil {
				t.Fatal(err)
			}
			sub := pr
			sub.Objective = c.obj
			sub.Bound = c.bound
			want, err := SolveContext(ctx, sub, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v bound=%g par=%d: prepared parallel solve diverges\n got %+v\nwant %+v",
					trial, c.obj, c.bound, c.par, got, want)
			}
		}
	}
	if prepared < 8 {
		t.Fatalf("only %d/40 trials exercised the prepared path; corpus too weak", prepared)
	}
}
