package mapping

import (
	"errors"
	"fmt"
	"strings"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// PipelineInterval maps the consecutive stages First..Last (0-indexed,
// inclusive) onto a processor set.
type PipelineInterval struct {
	First, Last int
	Assignment
}

// PipelineMapping is a partition of a pipeline into consecutive intervals,
// listed in stage order.
type PipelineMapping struct {
	Intervals []PipelineInterval
}

// Clone returns a deep copy of m: its intervals and their processor
// lists are fresh, and an empty processor list stays nil.
func (m PipelineMapping) Clone() PipelineMapping {
	out := PipelineMapping{Intervals: make([]PipelineInterval, len(m.Intervals))}
	copy(out.Intervals, m.Intervals)
	for i := range out.Intervals {
		out.Intervals[i].Procs = append([]int(nil), out.Intervals[i].Procs...)
	}
	return out
}

// NewPipelineInterval is a convenience constructor.
func NewPipelineInterval(first, last int, mode Mode, procs ...int) PipelineInterval {
	return PipelineInterval{First: first, Last: last, Assignment: Assignment{Procs: procs, Mode: mode}}
}

// ValidatePipeline checks the structural rules of Section 3.4:
//   - the intervals partition [0, n) consecutively and in order;
//   - processor sets are valid and pairwise disjoint;
//   - a data-parallel interval has length one.
func ValidatePipeline(p workflow.Pipeline, pl platform.Platform, m PipelineMapping) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	if len(m.Intervals) == 0 {
		return errors.New("mapping: pipeline mapping has no interval")
	}
	next := 0
	groups := make([]Assignment, 0, len(m.Intervals))
	for i, iv := range m.Intervals {
		if iv.First != next {
			return fmt.Errorf("mapping: interval %d starts at stage %d, want %d", i, iv.First, next)
		}
		if iv.Last < iv.First {
			return fmt.Errorf("mapping: interval %d is empty (first=%d last=%d)", i, iv.First, iv.Last)
		}
		if iv.Last >= p.Stages() {
			return fmt.Errorf("mapping: interval %d ends at stage %d beyond last stage %d", i, iv.Last, p.Stages()-1)
		}
		if err := iv.Assignment.validate(pl); err != nil {
			return fmt.Errorf("interval %d: %w", i, err)
		}
		if iv.Mode == DataParallel && iv.Last != iv.First {
			return fmt.Errorf("mapping: interval %d spans stages %d..%d but only single stages may be data-parallelized in a pipeline", i, iv.First, iv.Last)
		}
		groups = append(groups, iv.Assignment)
		next = iv.Last + 1
	}
	if next != p.Stages() {
		return fmt.Errorf("mapping: intervals cover stages [0,%d), pipeline has %d stages", next, p.Stages())
	}
	return checkDisjoint(groups)
}

// EvalPipeline validates the mapping and returns its period and latency:
// the period is the maximum group period, the latency the sum of group
// delays (Section 3.4).
func EvalPipeline(p workflow.Pipeline, pl platform.Platform, m PipelineMapping) (Cost, error) {
	if err := ValidatePipeline(p, pl, m); err != nil {
		return Cost{}, err
	}
	var c Cost
	for _, iv := range m.Intervals {
		w := p.IntervalWork(iv.First, iv.Last)
		if per := iv.groupPeriod(w, pl); per > c.Period {
			c.Period = per
		}
		c.Latency += iv.groupDelay(w, pl)
	}
	return c, nil
}

// ReplicateAllPipeline maps the whole pipeline as one interval replicated
// onto every processor — the optimal period mapping on homogeneous
// platforms (Theorem 1).
func ReplicateAllPipeline(p workflow.Pipeline, pl platform.Platform) PipelineMapping {
	procs := make([]int, pl.Processors())
	for i := range procs {
		procs[i] = i
	}
	return PipelineMapping{Intervals: []PipelineInterval{
		{First: 0, Last: p.Stages() - 1, Assignment: Assignment{Procs: procs, Mode: Replicated}},
	}}
}

// WholeOnProcessor maps the whole pipeline as one interval onto the single
// processor q — the optimal latency mapping without data-parallelism when q
// is the fastest processor (Theorem 6).
func WholeOnProcessor(p workflow.Pipeline, q int) PipelineMapping {
	return PipelineMapping{Intervals: []PipelineInterval{
		{First: 0, Last: p.Stages() - 1, Assignment: Assignment{Procs: []int{q}, Mode: Replicated}},
	}}
}

// String renders the mapping in a compact human-readable form.
func (m PipelineMapping) String() string {
	parts := make([]string, len(m.Intervals))
	for i, iv := range m.Intervals {
		span := fmt.Sprintf("S%d", iv.First+1)
		if iv.Last != iv.First {
			span = fmt.Sprintf("S%d..S%d", iv.First+1, iv.Last+1)
		}
		parts[i] = fmt.Sprintf("[%s %s on %s]", span, iv.Mode, procsLabel(iv.Procs))
	}
	return strings.Join(parts, " ")
}

// UsedProcessors returns the number of processors enrolled by the mapping.
func (m PipelineMapping) UsedProcessors() int {
	n := 0
	for _, iv := range m.Intervals {
		n += len(iv.Procs)
	}
	return n
}
