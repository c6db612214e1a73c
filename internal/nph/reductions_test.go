package nph

import (
	"fmt"
	"math/rand"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
)

// randomTheorem5Instance samples a 2-PARTITION instance meeting the
// Theorem 5 preconditions: pairwise distinct values, each smaller than S/2.
func randomTheorem5Instance(rng *rand.Rand, m, maxV int) []int {
	for {
		seen := make(map[int]bool)
		a := make([]int, 0, m)
		for len(a) < m {
			v := 1 + rng.Intn(maxV)
			if !seen[v] {
				seen[v] = true
				a = append(a, v)
			}
		}
		S := intSum(a)
		ok := true
		for _, v := range a {
			if 2*v >= S {
				ok = false
				break
			}
		}
		if ok {
			return a
		}
	}
}

func TestTheorem5LatencyReductionIff(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		a := randomTheorem5Instance(rng, 3+rng.Intn(3), 12)
		_, yes, err := TwoPartition(a)
		if err != nil {
			t.Fatal(err)
		}
		p, pl, bound := Theorem5Latency(a)
		opt, ok := exhaustive.PipelineLatency(p, pl, true)
		if !ok {
			t.Fatal("no mapping")
		}
		mappingYes := numeric.LessEq(opt.Cost.Latency, bound)
		if mappingYes != yes {
			t.Fatalf("trial %d: a=%v 2-PARTITION=%v but latency %v vs bound %v",
				trial, a, yes, opt.Cost.Latency, bound)
		}
	}
}

func TestTheorem5PeriodReductionIff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		a := randomTheorem5Instance(rng, 3+rng.Intn(3), 12)
		_, yes, err := TwoPartition(a)
		if err != nil {
			t.Fatal(err)
		}
		p, pl, bound := Theorem5Period(a)
		opt, ok := exhaustive.PipelinePeriod(p, pl, true)
		if !ok {
			t.Fatal("no mapping")
		}
		mappingYes := numeric.LessEq(opt.Cost.Period, bound)
		if mappingYes != yes {
			t.Fatalf("trial %d: a=%v 2-PARTITION=%v but period %v vs bound %v",
				trial, a, yes, opt.Cost.Period, bound)
		}
	}
}

func TestTheorem9ReductionIff(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checkedNo := 0
	for trial := 0; trial < 6; trial++ {
		m, M := 2, 4+rng.Intn(3)
		var ins N3DMInstance
		var yes bool
		if trial%2 == 0 {
			ins = RandomYesN3DM(rng, m, M)
			yes = true
		} else {
			var ok bool
			ins, ok = RandomNoN3DM(rng, m, M)
			if !ok {
				continue
			}
			checkedNo++
		}
		p, pl, bound, err := Theorem9(ins)
		if err != nil {
			t.Fatal(err)
		}
		opt, ok := exhaustive.PipelinePeriod(p, pl, false)
		if !ok {
			t.Fatal("no mapping")
		}
		mappingYes := numeric.LessEq(opt.Cost.Period, bound)
		if mappingYes != yes {
			t.Fatalf("trial %d: N3DM=%v but period %v vs bound %v (instance %+v)",
				trial, yes, opt.Cost.Period, bound, ins)
		}
	}
	if checkedNo == 0 {
		t.Log("warning: no unsolvable N3DM instance was generated")
	}
}

func TestTheorem9WitnessAchievesPeriodOne(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		m, M := 2+rng.Intn(2), 4+rng.Intn(3)
		ins := RandomYesN3DM(rng, m, M)
		s1, s2, ok := ins.Solve()
		if !ok {
			t.Fatal("yes-instance unsolvable")
		}
		p, pl, bound, err := Theorem9(ins)
		if err != nil {
			t.Fatal(err)
		}
		witness, err := theorem9Witness(ins, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := mapping.EvalPipeline(p, pl, witness)
		if err != nil {
			t.Fatalf("witness mapping invalid: %v", err)
		}
		if numeric.Greater(c.Period, bound) {
			t.Fatalf("witness period %v exceeds bound %v (instance %+v)", c.Period, bound, ins)
		}
	}
}

func TestTheorem9RejectsInvalidInstance(t *testing.T) {
	bad := N3DMInstance{X: []int{1}, Y: []int{1}, Z: []int{5}, M: 3}
	if _, _, _, err := Theorem9(bad); err == nil {
		t.Error("invalid N3DM instance accepted")
	}
	if _, err := theorem9Witness(bad, []int{0}, []int{0}); err == nil {
		t.Error("witness for invalid instance accepted")
	}
	good := N3DMInstance{X: []int{1}, Y: []int{1}, Z: []int{1}, M: 3}
	if _, err := theorem9Witness(good, []int{0, 1}, []int{0}); err == nil {
		t.Error("wrong-length permutation accepted")
	}
}

func TestTheorem12ReductionIff(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(3)
		a := make([]int, m)
		for i := range a {
			a[i] = 1 + rng.Intn(12)
		}
		_, yes, err := TwoPartition(a)
		if err != nil {
			t.Fatal(err)
		}
		f, pl, bound := Theorem12(a)
		// The proof covers both models (with or without data-parallelism).
		for _, dp := range []bool{false, true} {
			opt, ok := exhaustive.ForkLatency(f, pl, dp)
			if !ok {
				t.Fatal("no mapping")
			}
			mappingYes := numeric.LessEq(opt.Cost.Latency, bound)
			if mappingYes != yes {
				t.Fatalf("trial %d: a=%v 2-PARTITION=%v but latency %v vs bound %v (dp=%v)",
					trial, a, yes, opt.Cost.Latency, bound, dp)
			}
		}
	}
}

func TestTheorem13ReductionIff(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		a := randomTheorem5Instance(rng, 3+rng.Intn(3), 12)
		_, yes, err := TwoPartition(a)
		if err != nil {
			t.Fatal(err)
		}
		f, pl, lbound := Theorem13Latency(a)
		optL, ok := exhaustive.ForkLatency(f, pl, true)
		if !ok {
			t.Fatal("no mapping")
		}
		if got := numeric.LessEq(optL.Cost.Latency, lbound); got != yes {
			t.Fatalf("trial %d: a=%v 2-PARTITION=%v but latency %v vs bound %v",
				trial, a, yes, optL.Cost.Latency, lbound)
		}
		_, _, pbound := Theorem13Period(a)
		optP, ok := exhaustive.ForkPeriod(f, pl, true)
		if !ok {
			t.Fatal("no mapping")
		}
		if got := numeric.LessEq(optP.Cost.Period, pbound); got != yes {
			t.Fatalf("trial %d: a=%v 2-PARTITION=%v but period %v vs bound %v",
				trial, a, yes, optP.Cost.Period, pbound)
		}
	}
}

func TestTheorem15ReductionIff(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(3)
		a := make([]int, m)
		for i := range a {
			a[i] = 1 + rng.Intn(10)
		}
		_, yes, err := TwoPartition(a)
		if err != nil {
			t.Fatal(err)
		}
		f, pl, bound := Theorem15(a)
		opt, ok := exhaustive.ForkPeriod(f, pl, false)
		if !ok {
			t.Fatal("no mapping")
		}
		mappingYes := numeric.LessEq(opt.Cost.Period, bound)
		if mappingYes != yes {
			t.Fatalf("trial %d: a=%v 2-PARTITION=%v but period %v vs bound %v (mapping %v)",
				trial, a, yes, opt.Cost.Period, bound, opt.Mapping)
		}
	}
}

// theorem9Witness builds the explicit period-1 mapping from an N3DM
// solution (σ1, σ2), following the forward direction of the proof:
// for each group i, processor P_{σ1(i)} takes A_i plus z_{σ2(i)} unit
// stages, P_{m+σ2(i)} the remaining M - z_{σ2(i)} unit stages plus C, and
// P_{2m+i} the stage of weight D.
func theorem9Witness(ins N3DMInstance, sigma1, sigma2 []int) (mapping.PipelineMapping, error) {
	if err := ins.Validate(); err != nil {
		return mapping.PipelineMapping{}, err
	}
	m, M := len(ins.X), ins.M
	if len(sigma1) != m || len(sigma2) != m {
		return mapping.PipelineMapping{}, fmt.Errorf("nph: witness permutations have wrong length")
	}
	var mp mapping.PipelineMapping
	for i := 0; i < m; i++ {
		base := i * (M + 3)
		z := ins.Z[sigma2[i]]
		mp.Intervals = append(mp.Intervals,
			mapping.NewPipelineInterval(base, base+z, mapping.Replicated, sigma1[i]),
			mapping.NewPipelineInterval(base+z+1, base+M+1, mapping.Replicated, m+sigma2[i]),
			mapping.NewPipelineInterval(base+M+2, base+M+2, mapping.Replicated, 2*m+i),
		)
	}
	return mp, nil
}
