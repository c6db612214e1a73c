package fullmodel

import (
	"math/rand"
	"testing"

	"repliflow/internal/numeric"
)

func simpleFork() Fork {
	return Fork{Root: 2, In: 0, Out0: 4, Weights: []float64{6, 3}, Outs: []float64{0, 0}}
}

func TestValidateFork(t *testing.T) {
	f := simpleFork()
	pl := Uniform([]float64{1, 1, 1}, 2)
	good := ForkMapping{RootBlock: 0, Blocks: []ForkBlock{
		{Proc: 0}, {Proc: 1, Leaves: []int{0}}, {Proc: 2, Leaves: []int{1}},
	}}
	if err := ValidateFork(f, pl, good); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	bad := []ForkMapping{
		{},
		{RootBlock: 5, Blocks: good.Blocks},
		{RootBlock: 0, Blocks: []ForkBlock{{Proc: 0}, {Proc: 0, Leaves: []int{0, 1}}}}, // dup proc
		{RootBlock: 0, Blocks: []ForkBlock{{Proc: 0}, {Proc: 1, Leaves: []int{0}}}},    // leaf missing
		{RootBlock: 0, Blocks: []ForkBlock{{Proc: 0, Leaves: []int{0, 1}}, {Proc: 1}}}, // empty non-root
		{RootBlock: 0, Blocks: good.Blocks, SendOrder: []int{1}},                       // short order
		{RootBlock: 0, Blocks: good.Blocks, SendOrder: []int{0, 1}},                    // contains root
		{RootBlock: 0, Blocks: good.Blocks, SendOrder: []int{1, 1}},                    // duplicate
	}
	for i, m := range bad {
		if err := ValidateFork(f, pl, m); err == nil {
			t.Errorf("bad mapping %d accepted", i)
		}
	}
}

func TestEvalForkHandComputed(t *testing.T) {
	// Root (w=2) on P1 speed 1; leaf blocks {S1:6} on P2 and {S2:3} on P3,
	// all speeds 1, all bandwidths 2, broadcast size 4 (send time 2 each),
	// flexible model, send to block 1 first.
	f := simpleFork()
	pl := Uniform([]float64{1, 1, 1}, 2)
	m := ForkMapping{RootBlock: 0, Blocks: []ForkBlock{
		{Proc: 0}, {Proc: 1, Leaves: []int{0}}, {Proc: 2, Leaves: []int{1}},
	}, SendOrder: []int{1, 2}}
	c, err := EvalFork(f, pl, m, false)
	if err != nil {
		t.Fatal(err)
	}
	// s0Done = 2; block1 recv at 2+2=4, done 4+6 = 10; block2 recv at
	// 2+4=6, done 6+3 = 9; root own leaves none -> done 6.
	if !numeric.Eq(c.Latency, 10) {
		t.Errorf("latency = %v, want 10", c.Latency)
	}
	// Periods: root = 2 + sends 4 = 6; block1 = 2+6 = 8; block2 = 2+3 = 5.
	if !numeric.Eq(c.Period, 8) {
		t.Errorf("period = %v, want 8", c.Period)
	}

	// Reversed order: block2 first -> block1 done at 2+4+... recv 2+2+2=6,
	// done 12.
	m.SendOrder = []int{2, 1}
	c, err = EvalFork(f, pl, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(c.Latency, 12) {
		t.Errorf("reversed latency = %v, want 12", c.Latency)
	}
}

func TestOptimalSendOrderBeatsPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		f := Fork{Root: float64(1 + rng.Intn(5)), In: float64(rng.Intn(3)), Out0: float64(1 + rng.Intn(5))}
		for i := 0; i < n; i++ {
			f.Weights = append(f.Weights, float64(1+rng.Intn(9)))
			f.Outs = append(f.Outs, float64(rng.Intn(4)))
		}
		speeds := make([]float64, n+1)
		for i := range speeds {
			speeds[i] = float64(1 + rng.Intn(4))
		}
		pl := Uniform(speeds, float64(1+rng.Intn(3)))
		m := ForkMapping{RootBlock: 0, Blocks: []ForkBlock{{Proc: 0}}}
		for i := 0; i < n; i++ {
			m.Blocks = append(m.Blocks, ForkBlock{Proc: i + 1, Leaves: []int{i}})
		}
		for _, strict := range []bool{false, true} {
			m.SendOrder = OptimalSendOrder(f, pl, m)
			c, err := EvalFork(f, pl, m, strict)
			if err != nil {
				t.Fatal(err)
			}
			best, err := bestSendOrderLatency(f, pl, m, strict)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.Eq(c.Latency, best) {
				t.Fatalf("trial %d (strict=%v): optimal-order latency %v != permutation best %v",
					trial, strict, c.Latency, best)
			}
		}
	}
}

func TestStrictModelNeverFasterThanFlexible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		f := Fork{Root: float64(1 + rng.Intn(5)), Out0: float64(1 + rng.Intn(5))}
		for i := 0; i < n; i++ {
			f.Weights = append(f.Weights, float64(1+rng.Intn(9)))
			f.Outs = append(f.Outs, 0)
		}
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = float64(1 + rng.Intn(3))
		}
		pl := Uniform(speeds, float64(1+rng.Intn(3)))
		// Root shares its block with leaf 0, other leaves spread out.
		m := ForkMapping{RootBlock: 0, Blocks: []ForkBlock{{Proc: 0, Leaves: []int{0}}}}
		for i := 1; i < n; i++ {
			m.Blocks = append(m.Blocks, ForkBlock{Proc: i, Leaves: []int{i}})
		}
		m.SendOrder = OptimalSendOrder(f, pl, m)
		flex, err := EvalFork(f, pl, m, false)
		if err != nil {
			t.Fatal(err)
		}
		strict, err := EvalFork(f, pl, m, true)
		if err != nil {
			t.Fatal(err)
		}
		if numeric.Less(strict.Latency, flex.Latency) {
			// Not a theorem in general (the root's own completion can
			// differ), but with zero Outs the flexible model releases the
			// other blocks earlier while the root block finishes at the
			// same time, so strict can only be worse or equal.
			t.Fatalf("trial %d: strict latency %v beats flexible %v", trial, strict.Latency, flex.Latency)
		}
	}
}

func TestZeroCommunicationForkMatchesSimplifiedModel(t *testing.T) {
	// With In = Out0 = Outs = 0, the one-port fork latency is the
	// simplified-model formula for single-processor blocks:
	// max over blocks of (root? whole block : w0/s0 + block work).
	f := Fork{Root: 4, Weights: []float64{6, 2}, Outs: []float64{0, 0}}
	pl := Uniform([]float64{2, 1, 1}, 1)
	m := ForkMapping{RootBlock: 0, Blocks: []ForkBlock{
		{Proc: 0}, {Proc: 1, Leaves: []int{0}}, {Proc: 2, Leaves: []int{1}},
	}}
	m.SendOrder = OptimalSendOrder(f, pl, m)
	c, err := EvalFork(f, pl, m, false)
	if err != nil {
		t.Fatal(err)
	}
	// rootDone = 4/2 = 2; leaves done at 2+6 = 8 and 2+2 = 4.
	if !numeric.Eq(c.Latency, 8) {
		t.Errorf("latency = %v, want 8", c.Latency)
	}
}

// bestSendOrderLatency returns the minimum latency over all send orders by
// exhaustive permutation — the oracle of OptimalSendOrder, usable up to ~8
// non-root blocks.
func bestSendOrderLatency(f Fork, pl Platform, m ForkMapping, strict bool) (float64, error) {
	if err := ValidateFork(f, pl, m); err != nil {
		return 0, err
	}
	var others []int
	for i := range m.Blocks {
		if i != m.RootBlock {
			others = append(others, i)
		}
	}
	best := numeric.Inf
	var permute func(k int)
	permute = func(k int) {
		if k == len(others) {
			mm := m
			mm.SendOrder = append([]int(nil), others...)
			c, err := EvalFork(f, pl, mm, strict)
			if err == nil && c.Latency < best {
				best = c.Latency
			}
			return
		}
		for i := k; i < len(others); i++ {
			others[k], others[i] = others[i], others[k]
			permute(k + 1)
			others[k], others[i] = others[i], others[k]
		}
	}
	permute(0)
	return best, nil
}
