package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEqExact(t *testing.T) {
	if !Eq(1.0, 1.0) {
		t.Fatal("Eq(1,1) = false")
	}
	if Eq(1.0, 2.0) {
		t.Fatal("Eq(1,2) = true")
	}
}

func TestEqTolerance(t *testing.T) {
	a := 0.1 + 0.2
	if !Eq(a, 0.3) {
		t.Fatalf("Eq(0.1+0.2, 0.3) = false (a=%v)", a)
	}
	big := 1e12
	if !Eq(big, big*(1+1e-12)) {
		t.Fatal("relative tolerance not applied at large scale")
	}
	if Eq(big, big*(1+1e-6)) {
		t.Fatal("Eq too lax at large scale")
	}
}

// TestEqNearZero: the tolerance is relative at every magnitude, so tiny
// values compare as their scaled-up images do, and nothing but zero
// equals zero.
func TestEqNearZero(t *testing.T) {
	if Eq(0, 1e-12) || Eq(0, 1e-300) {
		t.Fatal("a positive value equals 0")
	}
	if Eq(1e-10, 3e-10) {
		t.Fatal("Eq(1e-10, 3e-10) = true")
	}
	if !Eq(1e-12, 1e-12*(1+1e-12)) {
		t.Fatal("relative tolerance not applied below 1")
	}
	for k := -40; k <= 40; k++ {
		s := math.Ldexp(1, k)
		if !Eq(0.1*s+0.2*s, 0.3*s) || Eq(1*s, 3*s) || Eq(s, s*(1+1e-6)) {
			t.Fatalf("Eq decides differently at scale 2^%d", k)
		}
	}
}

func TestEqInfinities(t *testing.T) {
	inf := math.Inf(1)
	if Eq(1, inf) || Eq(inf, 1) || Eq(inf, math.Inf(-1)) {
		t.Fatal("finite/inf or inf/-inf reported equal")
	}
	if !Eq(inf, inf) {
		t.Fatal("Eq(inf,inf) = false")
	}
	if !Less(1, inf) || GreaterEq(1, inf) {
		t.Fatal("ordering against inf broken")
	}
}

func TestOrderingPredicates(t *testing.T) {
	if !Less(1, 2) || Less(2, 1) || Less(1, 1) {
		t.Fatal("Less misbehaves")
	}
	if !Greater(2, 1) || Greater(1, 2) || Greater(1, 1) {
		t.Fatal("Greater misbehaves")
	}
	if !LessEq(1, 1) || !LessEq(1, 2) || LessEq(2, 1) {
		t.Fatal("LessEq misbehaves")
	}
	if !GreaterEq(1, 1) || !GreaterEq(2, 1) || GreaterEq(1, 2) {
		t.Fatal("GreaterEq misbehaves")
	}
}

func TestLessGreaterConsistency(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Exactly one of Less, Eq, Greater must hold.
		n := 0
		if Less(a, b) {
			n++
		}
		if Eq(a, b) {
			n++
		}
		if Greater(a, b) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct {
		a, b float64
		want int
	}{
		{10, 2, 5},
		{9, 2, 4},
		{0, 3, 0},
		{7, 7, 1},
		{6.9999999999999, 7, 1}, // within tolerance of 7/7
		{13.999999999999, 7, 2},
		{5, 0, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorDivExactRationals(t *testing.T) {
	// The Theorem 7 DP computes floor(K*k*s/w); verify no unit is lost when
	// K is itself of the form m*w/(k*s).
	for m := 1; m <= 40; m++ {
		for k := 1; k <= 8; k++ {
			w, s := 3.0, 7.0
			K := float64(m) * w / (float64(k) * s)
			if got := FloorDiv(K*float64(k)*s, w); got != m {
				t.Fatalf("FloorDiv lost a unit: m=%d k=%d got=%d", m, k, got)
			}
		}
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if MaxFloat(xs) != 5 {
		t.Error("MaxFloat wrong")
	}
	if SumFloat(xs) != 14 {
		t.Error("SumFloat wrong")
	}
	if SumFloat(nil) != 0 {
		t.Error("SumFloat(nil) != 0")
	}
}
