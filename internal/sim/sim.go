// Package sim is a discrete-event simulator for workflow executions under
// interval-based mappings, used to validate the analytic cost model of
// Benoit & Robert (RR-6308, Section 3.4) dynamically:
//
//   - a replicated group is k servers fed round-robin whose outputs are
//     re-serialized (the paper's round-robin rule exists precisely to keep
//     data sets in order, Section 3.3), so the simulated steady-state
//     throughput converges to k/tmax — not to the demand-driven sum of the
//     server rates;
//   - a data-parallel group is a single server of the aggregate speed.
//
// The simulator processes a finite stream of data sets and reports
// completion times, from which tests derive the steady-state period and
// the maximum latency and compare them against mapping.EvalPipeline /
// EvalFork.
package sim

import (
	"errors"
	"fmt"

	"repliflow/internal/mapping"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Trace records the simulated arrival and completion time of each data set.
type Trace struct {
	Arrivals    []float64
	Completions []float64
}

// MaxLatency returns the largest completion-minus-arrival over all data
// sets — the simulated counterpart of T_latency.
func (tr Trace) MaxLatency() float64 {
	var worst float64
	for i := range tr.Completions {
		if l := tr.Completions[i] - tr.Arrivals[i]; l > worst {
			worst = l
		}
	}
	return worst
}

// SteadyStatePeriod estimates the asymptotic inter-completion time from the
// second half of the trace — the simulated counterpart of T_period.
func (tr Trace) SteadyStatePeriod() float64 {
	n := len(tr.Completions)
	if n < 2 {
		return 0
	}
	mid := n / 2
	return (tr.Completions[n-1] - tr.Completions[mid]) / float64(n-1-mid)
}

// station models one mapped group of stages.
type station struct {
	speeds []float64 // one server per processor (replicated) or one aggregate server (data-parallel)
	work   float64
}

// replicatedStation builds a station with one server per processor.
func replicatedStation(work float64, pl platform.Platform, procs []int) station {
	speeds := make([]float64, len(procs))
	for i, q := range procs {
		speeds[i] = pl.Speeds[q]
	}
	return station{speeds: speeds, work: work}
}

// dataParallelStation builds a station with a single aggregate-speed server.
func dataParallelStation(work float64, pl platform.Platform, procs []int) station {
	return station{speeds: []float64{pl.SubsetSpeedSum(procs)}, work: work}
}

// process simulates the station over the in-order arrival stream and
// returns the in-order output stream. partialWork, when positive, also
// returns the times at which the first partialWork units of each data set
// are done (used for the fork root block, whose S0 output releases the
// other blocks before the block's own leaves finish).
func (st station) process(arrivals []float64, partialWork float64) (outputs, partials []float64) {
	k := len(st.speeds)
	serverFree := make([]float64, k)
	outputs = make([]float64, len(arrivals))
	partials = make([]float64, len(arrivals))
	prevOut, prevPartial := 0.0, 0.0
	for i, arr := range arrivals {
		q := i % k
		start := arr
		if serverFree[q] > start {
			start = serverFree[q]
		}
		finish := start + st.work/st.speeds[q]
		serverFree[q] = finish
		// Outputs leave in order (round-robin rule, Section 3.3).
		if finish < prevOut {
			finish = prevOut
		}
		outputs[i] = finish
		prevOut = finish
		if partialWork > 0 {
			pdone := start + partialWork/st.speeds[q]
			if pdone < prevPartial {
				pdone = prevPartial
			}
			partials[i] = pdone
			prevPartial = pdone
		}
	}
	return outputs, partials
}

// Arrivals builds an arrival vector of the given size spaced by period
// (period 0 means all data sets are available immediately — a saturated
// input that exposes the maximum sustainable throughput).
func Arrivals(datasets int, period float64) []float64 {
	arr := make([]float64, datasets)
	for i := range arr {
		arr[i] = float64(i) * period
	}
	return arr
}

// SimulatePipeline runs the mapped pipeline over the arrival stream.
func SimulatePipeline(p workflow.Pipeline, pl platform.Platform, m mapping.PipelineMapping, arrivals []float64) (Trace, error) {
	if err := mapping.ValidatePipeline(p, pl, m); err != nil {
		return Trace{}, err
	}
	if len(arrivals) == 0 {
		return Trace{}, errors.New("sim: empty arrival stream")
	}
	stream := arrivals
	for _, iv := range m.Intervals {
		w := p.IntervalWork(iv.First, iv.Last)
		var st station
		if iv.Mode == mapping.DataParallel {
			st = dataParallelStation(w, pl, iv.Procs)
		} else {
			st = replicatedStation(w, pl, iv.Procs)
		}
		stream, _ = st.process(stream, 0)
	}
	return Trace{Arrivals: arrivals, Completions: stream}, nil
}

// SimulateFork runs the mapped fork over the arrival stream under the
// flexible model: non-root blocks start a data set as soon as its S0
// computation completes.
func SimulateFork(f workflow.Fork, pl platform.Platform, m mapping.ForkMapping, arrivals []float64) (Trace, error) {
	if err := mapping.ValidateFork(f, pl, m); err != nil {
		return Trace{}, err
	}
	if len(arrivals) == 0 {
		return Trace{}, errors.New("sim: empty arrival stream")
	}
	var rootBlock mapping.ForkBlock
	for _, b := range m.Blocks {
		if b.Root {
			rootBlock = b
		}
	}
	rootWork := f.Root
	for _, l := range rootBlock.Leaves {
		rootWork += f.Weights[l]
	}
	var rootSt station
	if rootBlock.Mode == mapping.DataParallel {
		rootSt = dataParallelStation(rootWork, pl, rootBlock.Procs)
	} else {
		rootSt = replicatedStation(rootWork, pl, rootBlock.Procs)
	}
	rootOut, s0Out := rootSt.process(arrivals, f.Root)

	completions := make([]float64, len(arrivals))
	copy(completions, rootOut)
	for _, b := range m.Blocks {
		if b.Root {
			continue
		}
		w := 0.0
		for _, l := range b.Leaves {
			w += f.Weights[l]
		}
		var st station
		if b.Mode == mapping.DataParallel {
			st = dataParallelStation(w, pl, b.Procs)
		} else {
			st = replicatedStation(w, pl, b.Procs)
		}
		out, _ := st.process(s0Out, 0)
		for i, v := range out {
			if v > completions[i] {
				completions[i] = v
			}
		}
	}
	return Trace{Arrivals: arrivals, Completions: completions}, nil
}

// String summarizes a trace for debugging.
func (tr Trace) String() string {
	return fmt.Sprintf("trace{datasets=%d, maxLatency=%g, steadyPeriod=%g}",
		len(tr.Completions), tr.MaxLatency(), tr.SteadyStatePeriod())
}
