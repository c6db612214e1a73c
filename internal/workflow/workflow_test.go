package workflow

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPipelineCopies(t *testing.T) {
	ws := []float64{1, 2, 3}
	p := NewPipeline(ws...)
	ws[0] = 99
	if p.Weights[0] != 1 {
		t.Fatal("NewPipeline aliases caller slice")
	}
}

func TestPipelineAccessors(t *testing.T) {
	p := NewPipeline(14, 4, 2, 4) // the Section 2 example
	if p.Stages() != 4 {
		t.Errorf("Stages = %d", p.Stages())
	}
	if p.TotalWork() != 24 {
		t.Errorf("TotalWork = %v", p.TotalWork())
	}
	if p.IntervalWork(1, 3) != 10 {
		t.Errorf("IntervalWork(1,3) = %v", p.IntervalWork(1, 3))
	}
	if p.IntervalWork(0, 0) != 14 {
		t.Errorf("IntervalWork(0,0) = %v", p.IntervalWork(0, 0))
	}
	if p.IsHomogeneous() {
		t.Error("14,4,2,4 reported homogeneous")
	}
}

func TestHomogeneousPipeline(t *testing.T) {
	p := HomogeneousPipeline(5, 3)
	if p.Stages() != 5 || p.TotalWork() != 15 {
		t.Fatalf("bad homogeneous pipeline: %+v", p)
	}
	if !p.IsHomogeneous() {
		t.Fatal("HomogeneousPipeline not homogeneous")
	}
}

func TestPipelineValidate(t *testing.T) {
	if err := NewPipeline(1, 2).Validate(); err != nil {
		t.Errorf("valid pipeline rejected: %v", err)
	}
	if err := NewPipeline().Validate(); err == nil {
		t.Error("empty pipeline accepted")
	}
	if err := NewPipeline(1, 0).Validate(); err == nil {
		t.Error("zero-weight stage accepted")
	}
	if err := NewPipeline(-1).Validate(); err == nil {
		t.Error("negative-weight stage accepted")
	}
}

func TestForkAccessors(t *testing.T) {
	f := NewFork(2, 1, 3, 5)
	if f.Leaves() != 3 {
		t.Errorf("Leaves = %d", f.Leaves())
	}
	if f.TotalWork() != 11 {
		t.Errorf("TotalWork = %v", f.TotalWork())
	}
	if f.IsHomogeneous() {
		t.Error("1,3,5 reported homogeneous")
	}
	h := HomogeneousFork(7, 4, 2)
	if !h.IsHomogeneous() || h.TotalWork() != 15 {
		t.Errorf("bad homogeneous fork: %+v", h)
	}
}

func TestForkValidate(t *testing.T) {
	if err := NewFork(1, 2, 3).Validate(); err != nil {
		t.Errorf("valid fork rejected: %v", err)
	}
	if err := NewFork(0, 1).Validate(); err == nil {
		t.Error("zero root accepted")
	}
	if err := NewFork(1, 0).Validate(); err == nil {
		t.Error("zero leaf accepted")
	}
	// A fork with no leaves is degenerate but legal: only the root computes.
	if err := NewFork(1).Validate(); err != nil {
		t.Errorf("leafless fork rejected: %v", err)
	}
}

func TestForkJoin(t *testing.T) {
	fj := NewForkJoin(2, 3, 1, 4)
	if fj.Leaves() != 2 {
		t.Errorf("Leaves = %d", fj.Leaves())
	}
	if fj.TotalWork() != 10 {
		t.Errorf("TotalWork = %v", fj.TotalWork())
	}
	if got := fj.Fork(); got.Root != 2 || got.Leaves() != 2 {
		t.Errorf("Fork() = %+v", got)
	}
	if err := fj.Validate(); err != nil {
		t.Errorf("valid fork-join rejected: %v", err)
	}
	if err := NewForkJoin(1, 0, 1).Validate(); err == nil {
		t.Error("zero join accepted")
	}
	if !HomogeneousForkJoin(1, 1, 3, 2).IsHomogeneous() {
		t.Error("HomogeneousForkJoin not homogeneous")
	}
}

func TestForkJoinForkIsCopy(t *testing.T) {
	fj := NewForkJoin(1, 1, 5, 6)
	f := fj.Fork()
	f.Weights[0] = 42
	if fj.Weights[0] != 5 {
		t.Fatal("ForkJoin.Fork aliases weights")
	}
}

// TestForkJoinChecksDoNotAllocate: Validate and IsHomogeneous run on every
// fork-join solve and read the leaf weights in place.
func TestForkJoinChecksDoNotAllocate(t *testing.T) {
	fj := NewForkJoin(2, 3, 4, 4, 4, 4)
	if n := testing.AllocsPerRun(100, func() {
		if fj.Validate() != nil {
			t.Fatal("valid fork-join rejected")
		}
	}); n != 0 {
		t.Errorf("ForkJoin.Validate allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !fj.IsHomogeneous() {
			t.Fatal("homogeneous fork-join reported heterogeneous")
		}
	}); n != 0 {
		t.Errorf("ForkJoin.IsHomogeneous allocates %v times, want 0", n)
	}
}

func TestRandomGeneratorsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		p := RandomPipeline(rng, 6, 10)
		if p.Stages() != 6 {
			t.Fatal("wrong stage count")
		}
		for _, w := range p.Weights {
			if w < 1 || w > 10 || w != float64(int(w)) {
				t.Fatalf("weight out of range: %v", w)
			}
		}
		f := RandomFork(rng, 4, 5)
		if f.Root < 1 || f.Root > 5 || f.Leaves() != 4 {
			t.Fatalf("bad random fork: %+v", f)
		}
		fj := RandomForkJoin(rng, 3, 5)
		if fj.Join < 1 || fj.Join > 5 || fj.Leaves() != 3 {
			t.Fatalf("bad random fork-join: %+v", fj)
		}
	}
}

func TestRandomAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		return RandomPipeline(rng, n, 20).Validate() == nil &&
			RandomFork(rng, n, 20).Validate() == nil &&
			RandomForkJoin(rng, n, 20).Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindPipeline.String() != "pipeline" || KindFork.String() != "fork" ||
		KindForkJoin.String() != "fork-join" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestRenderPipeline(t *testing.T) {
	out := NewPipeline(14, 4, 2, 4).Render()
	if !strings.Contains(out, "S1") || !strings.Contains(out, "S4") {
		t.Fatalf("render missing stages:\n%s", out)
	}
	if !strings.Contains(out, "14") {
		t.Fatalf("render missing weight:\n%s", out)
	}
	if !strings.Contains(out, "->") {
		t.Fatalf("render missing arrows:\n%s", out)
	}
}

func TestRenderFork(t *testing.T) {
	out := NewFork(2, 1, 3).Render()
	if !strings.Contains(out, "S0 (2)") {
		t.Fatalf("render missing root:\n%s", out)
	}
	if !strings.Contains(out, "S2 (3)") {
		t.Fatalf("render missing leaf:\n%s", out)
	}
}

func TestRenderForkJoin(t *testing.T) {
	out := NewForkJoin(2, 5, 1, 3).Render()
	if !strings.Contains(out, "S3 (5)") {
		t.Fatalf("render missing join:\n%s", out)
	}
}
