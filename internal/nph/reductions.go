package nph

import (
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// The reductions below build, from a source 2-PARTITION or N3DM instance,
// the exact workflow/platform/threshold triple used in the corresponding
// NP-completeness proof. Each instance I2 has a mapping meeting the bound
// if and only if the source instance I1 has a solution; the tests exercise
// that equivalence with the exhaustive solvers as mapping oracles.

// intSum returns the sum of a.
func intSum(a []int) int {
	s := 0
	for _, v := range a {
		s += v
	}
	return s
}

// Theorem5Latency builds the Theorem 5 latency instance from a 2-PARTITION
// instance a: a two-stage homogeneous pipeline with w = S/2 on m processors
// of speeds a_j, with data-parallelism. The mapping question is
// "latency <= 2". The proof assumes all a_j distinct and smaller than S/2.
func Theorem5Latency(a []int) (workflow.Pipeline, platform.Platform, float64) {
	S := float64(intSum(a))
	speeds := make([]float64, len(a))
	for i, v := range a {
		speeds[i] = float64(v)
	}
	return workflow.NewPipeline(S/2, S/2), platform.New(speeds...), 2
}

// Theorem5Period builds the Theorem 5 period instance: same pipeline and
// platform, mapping question "period <= 1".
func Theorem5Period(a []int) (workflow.Pipeline, platform.Platform, float64) {
	p, pl, _ := Theorem5Latency(a)
	return p, pl, 1
}

// Theorem9Params groups the constants of the Theorem 9 construction.
type Theorem9Params struct {
	R, B, C, D int
}

// theorem9Params computes R = max(20, m+1), B = 2M, C = 5RM, D = 10R²M².
func theorem9Params(m, M int) Theorem9Params {
	R := 20
	if m+1 > R {
		R = m + 1
	}
	return Theorem9Params{R: R, B: 2 * M, C: 5 * R * M, D: 10 * R * R * M * M}
}

// Theorem9 builds the Pipeline-Period-Dec instance of Theorem 9 from an
// N3DM instance: a heterogeneous pipeline of (M+3)·m stages
//
//	A_1 1...1 C D | A_2 1...1 C D | ... | A_m 1...1 C D
//
// with A_i = B + x_i and M unit stages per group, on p = 3m processors of
// speeds B+M-y_j (slow), C+M-z_j (medium) and D (fast), without
// data-parallelism. The mapping question is "period <= 1".
func Theorem9(ins N3DMInstance) (workflow.Pipeline, platform.Platform, float64, error) {
	if err := ins.Validate(); err != nil {
		return workflow.Pipeline{}, platform.Platform{}, 0, err
	}
	m, M := len(ins.X), ins.M
	par := theorem9Params(m, M)
	var weights []float64
	for i := 0; i < m; i++ {
		weights = append(weights, float64(par.B+ins.X[i]))
		for k := 0; k < M; k++ {
			weights = append(weights, 1)
		}
		weights = append(weights, float64(par.C), float64(par.D))
	}
	speeds := make([]float64, 0, 3*m)
	for j := 0; j < m; j++ {
		speeds = append(speeds, float64(par.B+M-ins.Y[j]))
	}
	for j := 0; j < m; j++ {
		speeds = append(speeds, float64(par.C+M-ins.Z[j]))
	}
	for j := 0; j < m; j++ {
		speeds = append(speeds, float64(par.D))
	}
	return workflow.NewPipeline(weights...), platform.New(speeds...), 1, nil
}

// Theorem12 builds the Theorem 12 instance from a 2-PARTITION instance a:
// a heterogeneous fork with w0 = 1 and leaves a_i on two unit-speed
// processors (a Homogeneous platform). The mapping question is
// "latency <= 1 + S/2", with or without data-parallelism.
func Theorem12(a []int) (workflow.Fork, platform.Platform, float64) {
	S := float64(intSum(a))
	weights := make([]float64, len(a))
	for i, v := range a {
		weights[i] = float64(v)
	}
	return workflow.NewFork(1, weights...), platform.Homogeneous(2, 1), 1 + S/2
}

// Theorem13Latency builds the Theorem 13 latency instance: a homogeneous
// fork of two stages S0, S1 with w = S/2 on m processors of speeds a_j,
// with data-parallelism. The mapping question is "latency <= 2". The
// reduction mirrors Theorem 5.
func Theorem13Latency(a []int) (workflow.Fork, platform.Platform, float64) {
	S := float64(intSum(a))
	speeds := make([]float64, len(a))
	for i, v := range a {
		speeds[i] = float64(v)
	}
	return workflow.NewFork(S/2, S/2), platform.New(speeds...), 2
}

// Theorem13Period builds the Theorem 13 period instance: same fork and
// platform, mapping question "period <= 1".
func Theorem13Period(a []int) (workflow.Fork, platform.Platform, float64) {
	f, pl, _ := Theorem13Latency(a)
	return f, pl, 1
}

// Theorem15 builds the Theorem 15 instance from a 2-PARTITION instance a:
// a heterogeneous fork with w0 = S, leaves a_1..a_m plus one extra leaf of
// weight S, on two processors of speeds 5S/2 and S/2, without
// data-parallelism. The mapping question is "period <= 1".
func Theorem15(a []int) (workflow.Fork, platform.Platform, float64) {
	S := float64(intSum(a))
	weights := make([]float64, 0, len(a)+1)
	for _, v := range a {
		weights = append(weights, float64(v))
	}
	weights = append(weights, S)
	return workflow.NewFork(S, weights...), platform.New(5*S/2, S/2), 1
}
