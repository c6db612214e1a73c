package workflow

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSPBuilderAndValidate(t *testing.T) {
	var b SPBuilder
	b.Step("prepare", 2)
	b.Step("build", 4, After("prepare")...)
	b.Step("test", 3, After("build")...)
	b.Step("lint", 1, After("prepare")...)
	b.Step("release", 2, After("test", "lint")...)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.Stages() != 5 {
		t.Fatalf("Stages = %d, want 5", g.Stages())
	}
	if got, want := g.TotalWork(), 12.0; got != want {
		t.Fatalf("TotalWork = %v, want %v", got, want)
	}
	order, err := g.Topo()
	if err != nil {
		t.Fatalf("Topo: %v", err)
	}
	pos := make([]int, len(order))
	for p, i := range order {
		pos[i] = p
	}
	for i, ps := range g.Preds() {
		for _, p := range ps {
			if pos[p] >= pos[i] {
				t.Fatalf("Topo places predecessor %d after %d", p, i)
			}
		}
	}
}

func TestSPValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		g    SP
		want string
	}{
		{"empty", SP{}, "no step"},
		{"dup name", NewSP(SPStep{Name: "a", Weight: 1}, SPStep{Name: "a", Weight: 2}), "duplicate"},
		{"empty name", NewSP(SPStep{Name: "", Weight: 1}), "empty name"},
		{"bad weight", NewSP(SPStep{Name: "a", Weight: 0}), "non-positive"},
		{"dangling", NewSP(SPStep{Name: "a", Weight: 1, After: []string{"ghost"}}), "unknown step"},
		{"dup dep", NewSP(SPStep{Name: "a", Weight: 1}, SPStep{Name: "b", Weight: 1, After: []string{"a", "a"}}), "twice"},
		{"self", NewSP(SPStep{Name: "a", Weight: 1, After: []string{"a"}}), "itself"},
		{"cycle", NewSP(
			SPStep{Name: "a", Weight: 1, After: []string{"b"}},
			SPStep{Name: "b", Weight: 1, After: []string{"a"}},
		), "cycle"},
	}
	for _, tc := range cases {
		err := tc.g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSPTopoDeterministic(t *testing.T) {
	g := NewSP(
		SPStep{Name: "z", Weight: 1},
		SPStep{Name: "y", Weight: 1},
		SPStep{Name: "x", Weight: 1, After: []string{"z", "y"}},
	)
	first, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, _ := g.Topo()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("Topo not deterministic: %v vs %v", first, again)
			}
		}
	}
	if first[0] != 0 || first[1] != 1 || first[2] != 2 {
		t.Fatalf("Topo = %v, want index order [0 1 2]", first)
	}
}

func TestRandomSPValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		g := RandomSP(rng, n, 9, 4, 3)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: RandomSP invalid: %v\n%s", trial, err, g.Render())
		}
		if g.Stages() != n {
			t.Fatalf("trial %d: %d steps, want %d", trial, g.Stages(), n)
		}
	}
}

func TestSPRender(t *testing.T) {
	var b SPBuilder
	b.Step("a", 1)
	b.Step("b", 2, After("a")...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := g.Render()
	if !strings.Contains(r, "b (2) <- a") {
		t.Errorf("Render missing dependency line:\n%s", r)
	}
}

func TestKindStringNewKinds(t *testing.T) {
	for k, want := range map[Kind]string{
		KindSP:           "sp",
		KindCommPipeline: "comm-pipeline",
		KindCommFork:     "comm-fork",
		Kind(99):         "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
