package incumbent

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repliflow/internal/numeric"
)

// TestLeqMatchesLessEq: Leq decides as numeric.LessEq on every
// non-negative pair, at and around the relative tolerance's edges at
// every scale from 2^-40 to 2^40, with infinities and NaN.
func TestLeqMatchesLessEq(t *testing.T) {
	vals := []float64{0, numeric.Eps / 2, numeric.Eps, 2 * numeric.Eps, 0.5, 1, 1 + numeric.Eps, 1 + 2*numeric.Eps, 3, 7.000000001, 1e6, 1e6 * (1 + numeric.Eps), math.MaxFloat64, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(66))
	for k := 0; k < 200; k++ {
		x := math.Ldexp(rng.Float64()*20, rng.Intn(81)-40)
		vals = append(vals, x, x*(1+numeric.Eps*rng.Float64()*2), x*(1-numeric.Eps*rng.Float64()*2), x+numeric.Eps*rng.Float64()*2)
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := Leq(a, b), numeric.LessEq(a, b); got != want {
				t.Errorf("Leq(%v, %v) = %v, numeric.LessEq says %v", a, b, got, want)
			}
		}
	}
}

// randomPoints draws n points on a coarse grid, so that ties in either
// coordinate are common, some nudged within the tolerance.
func randomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Period: float64(1 + rng.Intn(8)), Latency: float64(1 + rng.Intn(8))}
		if rng.Intn(4) == 0 {
			pts[i].Latency *= 1 + numeric.Eps/2
		}
	}
	return pts
}

// checkList fails unless list rises strictly in period, falls strictly
// in latency, and no point weakly dominates another.
func checkList(t *testing.T, list []Point) {
	t.Helper()
	for i := range list {
		for j := range list {
			if i != j && Leq(list[i].Period, list[j].Period) && Leq(list[i].Latency, list[j].Latency) {
				t.Fatalf("list %v: point %d dominates point %d", list, i, j)
			}
		}
		if i > 0 && !(list[i-1].Period < list[i].Period && list[i-1].Latency > list[i].Latency) {
			t.Fatalf("list %v out of order at %d", list, i)
		}
	}
}

// TestInsertKeepsFront: inserting points in any order leaves a list in
// front order that weakly dominates every inserted point and contains
// only inserted points; in period order Insert and Append agree.
func TestInsertKeepsFront(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 500; trial++ {
		pts := randomPoints(rng, 1+rng.Intn(20))
		var list []Point
		for _, pt := range pts {
			list = Insert(list, pt)
			checkList(t, list)
		}
		for _, pt := range pts {
			if !Dominated(list, pt.Period, pt.Latency) {
				t.Fatalf("trial %d: list %v does not cover inserted %v", trial, list, pt)
			}
		}
		for _, q := range list {
			found := false
			for _, pt := range pts {
				found = found || pt == q
			}
			if !found {
				t.Fatalf("trial %d: list %v holds %v, never inserted", trial, list, q)
			}
		}

		// In period order (ties by latency), the two agree point for point.
		for i := 1; i < len(pts); i++ {
			for j := i; j > 0 && (pts[j].Period < pts[j-1].Period || pts[j].Period == pts[j-1].Period && pts[j].Latency < pts[j-1].Latency); j-- {
				pts[j], pts[j-1] = pts[j-1], pts[j]
			}
		}
		var ins, app []Point
		for _, pt := range pts {
			ins, app = Insert(ins, pt), Append(app, pt)
		}
		if !reflect.DeepEqual(ins, app) {
			t.Fatalf("trial %d: in period order Insert gives %v, Append %v", trial, ins, app)
		}
	}
}

// TestOptimumIsBestWithinBound: on lists built by Insert, Optimum is the
// least objective over the points within the bound, tested with Leq, at
// every point's coordinates, next to them and at +Inf, and reports
// none when no point is within the bound.
func TestOptimumIsBestWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		var list []Point
		for _, pt := range randomPoints(rng, 1+rng.Intn(12)) {
			list = Insert(list, pt)
		}
		bounds := []float64{0.5, math.Inf(1)}
		for _, pt := range list {
			for _, v := range []float64{pt.Period, pt.Latency} {
				bounds = append(bounds, v, v*(1-numeric.Eps/2), v*(1-2*numeric.Eps), v+0.5)
			}
		}
		for _, minimizePeriod := range []bool{true, false} {
			for _, b := range bounds {
				want, wantOK := math.Inf(1), false
				for _, pt := range list {
					obj, other := pt.Latency, pt.Period
					if minimizePeriod {
						obj, other = pt.Period, pt.Latency
					}
					if Leq(other, b) && obj < want {
						want, wantOK = obj, true
					}
				}
				if got, ok := Optimum(list, minimizePeriod, b); ok != wantOK || ok && got != want {
					t.Fatalf("trial %d: Optimum(%v, %v, %v) = (%v, %v), want (%v, %v)", trial, list, minimizePeriod, b, got, ok, want, wantOK)
				}
			}
		}
	}
}
