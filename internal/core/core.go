package core

import (
	"fmt"
	"strings"

	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Objective selects what to optimize.
type Objective int

const (
	// MinPeriod minimizes the period (maximizes throughput).
	MinPeriod Objective = iota
	// MinLatency minimizes the latency (response time).
	MinLatency
	// LatencyUnderPeriod minimizes the latency among mappings whose period
	// does not exceed Problem.Bound.
	LatencyUnderPeriod
	// PeriodUnderLatency minimizes the period among mappings whose latency
	// does not exceed Problem.Bound.
	PeriodUnderLatency
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinPeriod:
		return "min-period"
	case MinLatency:
		return "min-latency"
	case LatencyUnderPeriod:
		return "latency-under-period"
	case PeriodUnderLatency:
		return "period-under-latency"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Bounded reports whether the objective carries a threshold.
func (o Objective) Bounded() bool {
	return o == LatencyUnderPeriod || o == PeriodUnderLatency
}

// Problem is a full instance of the mapping problem: exactly one of the
// graph fields must be non-nil. Pipeline, Fork and ForkJoin are the three
// legacy shapes of the simplified model; SP is a general series-parallel
// DAG solved by decomposition; CommPipeline and CommFork are the
// communication-aware variants of Sections 3.2-3.3 and require Bandwidth.
type Problem struct {
	Pipeline *workflow.Pipeline
	Fork     *workflow.Fork
	ForkJoin *workflow.ForkJoin
	SP       *workflow.SP
	// CommPipeline and CommFork are communication-aware instances: stage
	// weights plus inter-stage data sizes, priced against Bandwidth.
	CommPipeline *fullmodel.Pipeline
	CommFork     *fullmodel.Fork
	// Bandwidth describes the interconnect of a communication-aware
	// instance (required with CommPipeline/CommFork, rejected otherwise).
	Bandwidth *fullmodel.Bandwidth

	Platform          platform.Platform
	AllowDataParallel bool
	Objective         Objective
	// Bound is the threshold of a bi-criteria objective.
	Bound float64
}

// Validate checks the problem is well formed. Every failure carries
// ErrKindInvalidInstance, recoverable through ErrKindOf.
func (pr Problem) Validate() error {
	return WithErrKind(ErrKindInvalidInstance, pr.validate())
}

func (pr Problem) validate() error {
	var spec *KindSpec
	count := 0
	for _, s := range kindSpecList {
		if s.HasGraph(pr) {
			count++
			spec = s
		}
	}
	if count != 1 {
		names := make([]string, len(kindSpecList))
		for i, s := range kindSpecList {
			names[i] = s.Name
		}
		return fmt.Errorf("core: exactly one of the graph fields (%s) must be set", strings.Join(names, ", "))
	}
	if err := spec.ValidateGraph(pr); err != nil {
		return err
	}
	if pr.AllowDataParallel && !spec.DataParallel {
		return fmt.Errorf("core: kind %s has no data-parallel mapping model", spec.Name)
	}
	if err := pr.Platform.Validate(); err != nil {
		return err
	}
	if spec.NeedsBandwidth {
		if pr.Bandwidth == nil {
			return fmt.Errorf("core: kind %s requires Bandwidth", spec.Name)
		}
		if err := pr.Bandwidth.Validate(pr.Platform.Processors()); err != nil {
			return err
		}
	} else if pr.Bandwidth != nil {
		return fmt.Errorf("core: kind %s does not take Bandwidth", spec.Name)
	}
	if pr.Objective.Bounded() && pr.Bound <= 0 {
		return fmt.Errorf("core: bounded objective %v requires a positive Bound", pr.Objective)
	}
	switch pr.Objective {
	case MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency:
	default:
		return fmt.Errorf("core: unknown objective %d", int(pr.Objective))
	}
	return nil
}
