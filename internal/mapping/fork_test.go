package mapping

import (
	"strings"
	"testing"
	"testing/quick"

	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func mustEvalFork(t *testing.T, f workflow.Fork, pl platform.Platform, m ForkMapping) Cost {
	t.Helper()
	c, err := EvalFork(f, pl, m)
	if err != nil {
		t.Fatalf("EvalFork(%v): %v", m, err)
	}
	return c
}

func TestForkSingleBlock(t *testing.T) {
	// Whole fork on one processor: period = latency = total work / speed.
	f := workflow.NewFork(2, 3, 5)
	pl := platform.New(2)
	m := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, []int{0, 1}, Replicated, 0),
	}}
	c := mustEvalFork(t, f, pl, m)
	if !numeric.Eq(c.Period, 5) || !numeric.Eq(c.Latency, 5) { // 10/2
		t.Fatalf("got %v, want 5/5", c)
	}
}

func TestForkReplicateAll(t *testing.T) {
	// Theorem 10's mapping: replicate everything on all processors.
	f := workflow.NewFork(2, 3, 5, 2)
	pl := platform.Homogeneous(3, 1)
	m := ReplicateAllForkJoin(workflow.ForkJoin{Root: f.Root, Weights: f.Weights}, pl).Fork()
	c := mustEvalFork(t, f, pl, m)
	if !numeric.Eq(c.Period, 4) { // 12/(3*1)
		t.Errorf("period = %v, want 4", c.Period)
	}
	if !numeric.Eq(c.Latency, 12) {
		t.Errorf("latency = %v, want 12", c.Latency)
	}
}

func TestForkFlexibleModelLatency(t *testing.T) {
	// Root block {S0,S1} on P1 (speed 1), leaf block {S2} on P2 (speed 2).
	// rootDone = 2/1 = 2; block 2 delay = 6/2 = 3.
	// latency = max(tmax(1)=5, 2+3=5) = 5; period = max(5, 3) = 5.
	f := workflow.NewFork(2, 3, 6)
	pl := platform.New(1, 2)
	m := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, []int{0}, Replicated, 0),
		NewForkBlock(false, []int{1}, Replicated, 1),
	}}
	c := mustEvalFork(t, f, pl, m)
	if !numeric.Eq(c.Latency, 5) || !numeric.Eq(c.Period, 5) {
		t.Fatalf("got %v, want 5/5", c)
	}
}

func TestForkRootAloneDataParallel(t *testing.T) {
	// S0 alone may be data-parallelized (i=j=0 case of Section 3.4):
	// s0 = 1+3 = 4, so leaf blocks start at 8/4 = 2.
	f := workflow.NewFork(8, 4)
	pl := platform.New(1, 3, 2)
	m := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, nil, DataParallel, 0, 1),
		NewForkBlock(false, []int{0}, Replicated, 2),
	}}
	c := mustEvalFork(t, f, pl, m)
	if !numeric.Eq(c.Latency, 4) { // max(2, 2 + 4/2)
		t.Errorf("latency = %v, want 4", c.Latency)
	}
	if !numeric.Eq(c.Period, 2) { // max(8/4, 4/2)
		t.Errorf("period = %v, want 2", c.Period)
	}
}

func TestForkDataParallelLeafSet(t *testing.T) {
	// A set of independent stages may be data-parallelized together.
	f := workflow.NewFork(2, 3, 5)
	pl := platform.New(2, 1, 3)
	m := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, nil, Replicated, 0),
		NewForkBlock(false, []int{0, 1}, DataParallel, 1, 2),
	}}
	c := mustEvalFork(t, f, pl, m)
	// rootDone = 2/2 = 1; leaf block delay = 8/(1+3) = 2.
	if !numeric.Eq(c.Latency, 3) {
		t.Errorf("latency = %v, want 3", c.Latency)
	}
	if !numeric.Eq(c.Period, 2) { // max(1, 2)
		t.Errorf("period = %v, want 2", c.Period)
	}
}

func TestForkRootReplicatedUsesMinSpeed(t *testing.T) {
	// When the root block is replicated, s0 is the minimum speed of the
	// block (Section 3.4), not the sum.
	f := workflow.NewFork(6, 4)
	pl := platform.New(3, 1, 2)
	m := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, nil, Replicated, 0, 1),
		NewForkBlock(false, []int{0}, Replicated, 2),
	}}
	c := mustEvalFork(t, f, pl, m)
	// s0 = min(3,1) = 1; latency = max(6/1, 6/1 + 4/2) = 8.
	if !numeric.Eq(c.Latency, 8) {
		t.Errorf("latency = %v, want 8", c.Latency)
	}
	// period = max(6/(2*1), 4/2) = 3.
	if !numeric.Eq(c.Period, 3) {
		t.Errorf("period = %v, want 3", c.Period)
	}
}

func TestForkLeaflessGraph(t *testing.T) {
	f := workflow.NewFork(5)
	pl := platform.New(2)
	m := ForkMapping{Blocks: []ForkBlock{NewForkBlock(true, nil, Replicated, 0)}}
	c := mustEvalFork(t, f, pl, m)
	if !numeric.Eq(c.Latency, 2.5) || !numeric.Eq(c.Period, 2.5) {
		t.Fatalf("got %v, want 2.5/2.5", c)
	}
}

func TestValidateForkRejections(t *testing.T) {
	f := workflow.NewFork(2, 3, 5)
	pl := platform.Homogeneous(3, 1)
	cases := []struct {
		name string
		m    ForkMapping
	}{
		{"no blocks", ForkMapping{}},
		{"no root block", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(false, []int{0, 1}, Replicated, 0),
		}}},
		{"two root blocks", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0}, Replicated, 0),
			NewForkBlock(true, []int{1}, Replicated, 1),
		}}},
		{"missing leaf", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0}, Replicated, 0),
		}}},
		{"duplicated leaf", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0, 0}, Replicated, 0),
			NewForkBlock(false, []int{1}, Replicated, 1),
		}}},
		{"leaf out of range", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0, 1, 2}, Replicated, 0),
		}}},
		{"empty non-root block", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0, 1}, Replicated, 0),
			NewForkBlock(false, nil, Replicated, 1),
		}}},
		{"root data-parallel with leaves", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0, 1}, DataParallel, 0, 1),
		}}},
		{"processor reused", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0}, Replicated, 0),
			NewForkBlock(false, []int{1}, Replicated, 0),
		}}},
		{"empty processor set", ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0, 1}, Replicated),
		}}},
	}
	for _, c := range cases {
		if err := ValidateFork(f, pl, c.m); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestForkPeriodNeverExceedsLatency(t *testing.T) {
	// In any fork mapping, the root block's period <= its delay <= latency,
	// and every other block's period <= delay <= w0/s0 + delay <= latency.
	f := func(w0, w1, w2, s1, s2 uint8) bool {
		fk := workflow.NewFork(float64(w0%9+1), float64(w1%9+1), float64(w2%9+1))
		pl := platform.New(float64(s1%4+1), float64(s2%4+1))
		m := ForkMapping{Blocks: []ForkBlock{
			NewForkBlock(true, []int{0}, Replicated, 0),
			NewForkBlock(false, []int{1}, Replicated, 1),
		}}
		c, err := EvalFork(fk, pl, m)
		if err != nil {
			return false
		}
		return numeric.LessEq(c.Period, c.Latency)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForkMappingString(t *testing.T) {
	m := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, []int{1}, Replicated, 0),
		NewForkBlock(false, []int{0}, DataParallel, 2, 1),
	}}
	s := m.String()
	if !strings.Contains(s, "{S0,S2} replicated on P1") {
		t.Errorf("String missing root block: %s", s)
	}
	if !strings.Contains(s, "{S1} data-parallel on P2,P3") {
		t.Errorf("String missing leaf block: %s", s)
	}
	if m.UsedProcessors() != 3 {
		t.Errorf("UsedProcessors = %d", m.UsedProcessors())
	}
}

// TestForkMappingForkJoinRoundTrip: a fork mapping as the mapping of its
// fork-join without a join sets no Join flag and comes back unchanged
// through ForkJoinMapping.Fork; a nil block list stays nil.
func TestForkMappingForkJoinRoundTrip(t *testing.T) {
	m := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, []int{1}, Replicated, 0, 2),
		NewForkBlock(false, []int{0, 2}, DataParallel, 1),
	}}
	fj := m.ForkJoin()
	for _, b := range fj.Blocks {
		if b.Join {
			t.Fatalf("%v places a join", fj)
		}
	}
	if back := fj.Fork(); back.String() != m.String() {
		t.Errorf("round trip %v, want %v", back, m)
	}
	if (ForkMapping{}).ForkJoin().Blocks != nil {
		t.Error("a nil block list became non-nil")
	}
}
