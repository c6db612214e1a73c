package mapping

import (
	"strings"
	"testing"
	"testing/quick"

	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func mustEvalForkJoin(t *testing.T, fj workflow.ForkJoin, pl platform.Platform, m ForkJoinMapping) Cost {
	t.Helper()
	c, err := EvalForkJoin(fj, pl, m)
	if err != nil {
		t.Fatalf("EvalForkJoin(%v): %v", m, err)
	}
	return c
}

func TestForkJoinSingleBlock(t *testing.T) {
	fj := workflow.NewForkJoin(2, 4, 3, 5)
	pl := platform.New(2)
	m := ForkJoinMapping{Blocks: []ForkJoinBlock{
		NewForkJoinBlock(true, true, []int{0, 1}, Replicated, 0),
	}}
	c := mustEvalForkJoin(t, fj, pl, m)
	if !numeric.Eq(c.Period, 7) || !numeric.Eq(c.Latency, 7) { // 14/2
		t.Fatalf("got %v, want 7/7", c)
	}
}

func TestForkJoinReplicateAll(t *testing.T) {
	fj := workflow.NewForkJoin(2, 4, 3, 5)
	pl := platform.Homogeneous(2, 1)
	c := mustEvalForkJoin(t, fj, pl, ReplicateAllForkJoin(fj, pl))
	if !numeric.Eq(c.Period, 7) { // 14/(2*1)
		t.Errorf("period = %v, want 7", c.Period)
	}
	if !numeric.Eq(c.Latency, 14) {
		t.Errorf("latency = %v, want 14", c.Latency)
	}
}

func TestForkJoinSeparateJoinBlock(t *testing.T) {
	// Root block {S0,S1} on P1 speed 1; leaf block {S2} on P2 speed 2;
	// join block {S3} on P3 speed 4.
	// rootDone = 2; leafDone = max(2, (2+3)/1, 2+6/2) = 5;
	// latency = 5 + 8/4 = 7.
	fj := workflow.NewForkJoin(2, 8, 3, 6)
	pl := platform.New(1, 2, 4)
	m := ForkJoinMapping{Blocks: []ForkJoinBlock{
		NewForkJoinBlock(true, false, []int{0}, Replicated, 0),
		NewForkJoinBlock(false, false, []int{1}, Replicated, 1),
		NewForkJoinBlock(false, true, nil, Replicated, 2),
	}}
	c := mustEvalForkJoin(t, fj, pl, m)
	if !numeric.Eq(c.Latency, 7) {
		t.Errorf("latency = %v, want 7", c.Latency)
	}
	if !numeric.Eq(c.Period, 5) { // max(5/1, 6/2, 8/4)
		t.Errorf("period = %v, want 5", c.Period)
	}
}

func TestForkJoinJoinWithRootBlock(t *testing.T) {
	// Root and join share a block: {S0,Sjoin} on P1 (speed 2); leaf {S1} on
	// P2 (speed 1). rootDone = 1; leafDone = max(1, 1+4/1) = 5;
	// latency = 5 + 2/2 = 6. Period: block1 = (2+2)/2 = 2, block2 = 4.
	fj := workflow.NewForkJoin(2, 2, 4)
	pl := platform.New(2, 1)
	m := ForkJoinMapping{Blocks: []ForkJoinBlock{
		NewForkJoinBlock(true, true, nil, Replicated, 0),
		NewForkJoinBlock(false, false, []int{0}, Replicated, 1),
	}}
	c := mustEvalForkJoin(t, fj, pl, m)
	if !numeric.Eq(c.Latency, 6) {
		t.Errorf("latency = %v, want 6", c.Latency)
	}
	if !numeric.Eq(c.Period, 4) {
		t.Errorf("period = %v, want 4", c.Period)
	}
}

func TestForkJoinDataParallelJoinAlone(t *testing.T) {
	fj := workflow.NewForkJoin(4, 6, 2)
	pl := platform.New(2, 1, 2)
	m := ForkJoinMapping{Blocks: []ForkJoinBlock{
		NewForkJoinBlock(true, false, []int{0}, Replicated, 0),
		NewForkJoinBlock(false, true, nil, DataParallel, 1, 2),
	}}
	c := mustEvalForkJoin(t, fj, pl, m)
	// leafDone = (4+2)/2 = 3; join delay = 6/(1+2) = 2; latency = 5.
	if !numeric.Eq(c.Latency, 5) {
		t.Errorf("latency = %v, want 5", c.Latency)
	}
	if !numeric.Eq(c.Period, 3) { // max(6/2, 2)
		t.Errorf("period = %v, want 3", c.Period)
	}
}

func TestForkJoinMatchesForkWhenJoinNegligible(t *testing.T) {
	// With a tiny join stage on a very fast dedicated processor, the
	// fork-join latency approaches the fork latency of the same mapping.
	f := workflow.NewFork(2, 3, 6)
	fj := workflow.ForkJoin{Root: 2, Weights: []float64{3, 6}, Join: 1e-9}
	plFork := platform.New(1, 2)
	plFJ := platform.New(1, 2, 1e9)
	mf := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, []int{0}, Replicated, 0),
		NewForkBlock(false, []int{1}, Replicated, 1),
	}}
	mfj := ForkJoinMapping{Blocks: []ForkJoinBlock{
		NewForkJoinBlock(true, false, []int{0}, Replicated, 0),
		NewForkJoinBlock(false, false, []int{1}, Replicated, 1),
		NewForkJoinBlock(false, true, nil, Replicated, 2),
	}}
	// Set Join weight so small the join cost vanishes.
	cf, err := EvalFork(f, plFork, mf)
	if err != nil {
		t.Fatal(err)
	}
	cfj, err := EvalForkJoin(fj, plFJ, mfj)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(cf.Latency, cfj.Latency) {
		t.Fatalf("fork latency %v != fork-join latency %v", cf.Latency, cfj.Latency)
	}
}

func TestValidateForkJoinRejections(t *testing.T) {
	fj := workflow.NewForkJoin(2, 4, 3, 5)
	pl := platform.Homogeneous(3, 1)
	cases := []struct {
		name string
		m    ForkJoinMapping
	}{
		{"no blocks", ForkJoinMapping{}},
		{"no join block", ForkJoinMapping{Blocks: []ForkJoinBlock{
			NewForkJoinBlock(true, false, []int{0, 1}, Replicated, 0),
		}}},
		{"two join blocks", ForkJoinMapping{Blocks: []ForkJoinBlock{
			NewForkJoinBlock(true, true, []int{0, 1}, Replicated, 0),
			NewForkJoinBlock(false, true, nil, Replicated, 1),
		}}},
		{"no root block", ForkJoinMapping{Blocks: []ForkJoinBlock{
			NewForkJoinBlock(false, true, []int{0, 1}, Replicated, 0),
		}}},
		{"missing leaf", ForkJoinMapping{Blocks: []ForkJoinBlock{
			NewForkJoinBlock(true, true, []int{0}, Replicated, 0),
		}}},
		{"data-parallel root with join", ForkJoinMapping{Blocks: []ForkJoinBlock{
			NewForkJoinBlock(true, true, nil, DataParallel, 0, 1),
			NewForkJoinBlock(false, false, []int{0, 1}, Replicated, 2),
		}}},
		{"data-parallel join with leaves", ForkJoinMapping{Blocks: []ForkJoinBlock{
			NewForkJoinBlock(true, false, nil, Replicated, 0),
			NewForkJoinBlock(false, true, []int{0, 1}, DataParallel, 1, 2),
		}}},
		{"empty block", ForkJoinMapping{Blocks: []ForkJoinBlock{
			NewForkJoinBlock(true, true, []int{0, 1}, Replicated, 0),
			NewForkJoinBlock(false, false, nil, Replicated, 1),
		}}},
	}
	for _, c := range cases {
		if err := ValidateForkJoin(fj, pl, c.m); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestForkJoinPeriodNeverExceedsLatency(t *testing.T) {
	f := func(w0, w1, wj, s1, s2 uint8) bool {
		fj := workflow.NewForkJoin(float64(w0%9+1), float64(wj%9+1), float64(w1%9+1))
		pl := platform.New(float64(s1%4+1), float64(s2%4+1))
		m := ForkJoinMapping{Blocks: []ForkJoinBlock{
			NewForkJoinBlock(true, true, nil, Replicated, 0),
			NewForkJoinBlock(false, false, []int{0}, Replicated, 1),
		}}
		c, err := EvalForkJoin(fj, pl, m)
		if err != nil {
			return false
		}
		return numeric.LessEq(c.Period, c.Latency)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForkJoinMappingString(t *testing.T) {
	m := ForkJoinMapping{Blocks: []ForkJoinBlock{
		NewForkJoinBlock(true, true, []int{0}, Replicated, 0),
	}}
	s := m.String()
	if !strings.Contains(s, "S0") || !strings.Contains(s, "Sjoin") {
		t.Errorf("String missing stages: %s", s)
	}
	if m.UsedProcessors() != 1 {
		t.Errorf("UsedProcessors = %d", m.UsedProcessors())
	}
}

// EvalForkGraph prices a fork-join as EvalForkJoin does, and a fork's
// joinless mapping as EvalFork prices its fork view: bit for bit, past
// the 16 blocks its stack view holds too, and allocating no more than
// EvalFork.
func TestEvalForkGraph(t *testing.T) {
	f := workflow.NewFork(0.3, 0.1, 0.7, 0.2)
	joinless := workflow.ForkJoin{Root: f.Root, Weights: f.Weights}
	pl := platform.New(1.5, 2, 3)
	fm := ForkMapping{Blocks: []ForkBlock{
		NewForkBlock(true, []int{2, 0}, Replicated, 0, 1),
		NewForkBlock(false, []int{1}, Replicated, 2),
	}}
	m := fm.ForkJoin()
	got, err := EvalForkGraph(joinless, false, pl, m)
	if want := mustEvalFork(t, f, pl, fm); err != nil || got != want {
		t.Fatalf("joinless cost %v (err %v), EvalFork %v", got, err, want)
	}
	graph := testing.AllocsPerRun(20, func() { _, _ = EvalForkGraph(joinless, false, pl, m) })
	fork := testing.AllocsPerRun(20, func() { _, _ = EvalFork(f, pl, fm) })
	if graph > fork {
		t.Errorf("EvalForkGraph allocates %v objects, EvalFork %v", graph, fork)
	}

	fj := workflow.NewForkJoin(0.3, 0.9, 0.1, 0.7, 0.2)
	all := ReplicateAllForkJoin(fj, pl)
	if got, err := EvalForkGraph(fj, true, pl, all); err != nil || got != mustEvalForkJoin(t, fj, pl, all) {
		t.Fatalf("fork-join cost %v (err %v), EvalForkJoin %v", got, err, mustEvalForkJoin(t, fj, pl, all))
	}

	wide := workflow.HomogeneousFork(1, 20, 0.1)
	widePl := platform.Homogeneous(21, 1.5)
	var blocks []ForkBlock
	for i := 0; i < 20; i++ {
		blocks = append(blocks, NewForkBlock(false, []int{i}, Replicated, i))
	}
	blocks = append(blocks, NewForkBlock(true, nil, Replicated, 20))
	wideFM := ForkMapping{Blocks: blocks}
	got, err = EvalForkGraph(workflow.ForkJoin{Root: wide.Root, Weights: wide.Weights}, false, widePl, wideFM.ForkJoin())
	if want := mustEvalFork(t, wide, widePl, wideFM); err != nil || got != want {
		t.Fatalf("21-block joinless cost %v (err %v), EvalFork %v", got, err, want)
	}
}

// ReplicateAllForkJoin's processor and leaf lists share one array;
// appending to the processors leaves the leaves alone.
func TestReplicateAllForkJoinListsAreIndependent(t *testing.T) {
	fj := workflow.NewForkJoin(1, 1, 2, 3)
	b := ReplicateAllForkJoin(fj, platform.New(1, 2)).Blocks[0]
	if len(b.Procs) != 2 || len(b.Leaves) != 2 || b.Procs[1] != 1 || b.Leaves[1] != 1 {
		t.Fatalf("block %+v", b)
	}
	_ = append(b.Procs, 7)
	if b.Leaves[0] != 0 {
		t.Errorf("appending a processor overwrote leaf list %v", b.Leaves)
	}
}
