// Package repro regenerates every table and figure of the paper's
// evaluation section (§V) plus its headline claims, as textual tables.
// Each experiment is addressable by the paper's figure number; All
// lists them, and golden_test.go pins the analytic cells of the
// paper-vs-measured record.
package repro

import (
	"fmt"
	"io"

	"herald/internal/report"
)

// Options scales the Monte-Carlo workload. The paper runs 1e6
// iterations; the defaults here are laptop-scale and the CLIs accept
// the full counts.
type Options struct {
	// MCIterations is the per-point Monte-Carlo iteration count.
	MCIterations int
	// MissionTime is the per-iteration simulated horizon in hours.
	MissionTime float64
	// Seed drives all simulations.
	Seed uint64
	// Confidence is the CI level (default 0.99 as in the paper).
	Confidence float64
	// Workers caps simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// TargetHalfWidth, when positive, makes the paper-scale sweep
	// (Full) adaptive: each point stops at this CI half-width instead
	// of running the full MCIterations count.
	TargetHalfWidth float64
	// Bias turns on failure-biased importance sampling for the
	// paper-scale sweep (Full): sim.BiasAuto or a finite factor >= 1
	// (0 = off). The sweep's configurations are all-exponential, so
	// the memoryless kernel the biasing needs always resolves.
	Bias float64
}

// Defaults returns laptop-scale options: 4000 iterations over a
// 1e6-hour mission at 99% confidence.
func Defaults() Options {
	return Options{
		MCIterations: 4000,
		MissionTime:  1e6,
		Seed:         20170327, // DATE'17 conference date
		Confidence:   0.99,
	}
}

func (o Options) withDefaults() Options {
	d := Defaults()
	if o.MCIterations > 0 {
		d.MCIterations = o.MCIterations
	}
	if o.MissionTime > 0 {
		d.MissionTime = o.MissionTime
	}
	if o.Seed != 0 {
		d.Seed = o.Seed
	}
	if o.Confidence > 0 {
		d.Confidence = o.Confidence
	}
	if o.Workers > 0 {
		d.Workers = o.Workers
	}
	return d
}

// Experiment names accepted by Run.
const (
	ExpFig4            = "4"
	ExpFig5            = "5"
	ExpFig6            = "6"
	ExpFig7            = "7"
	ExpUnderestimation = "underestimation"
	ExpAblation        = "ablation"
	ExpSensitivity     = "sensitivity"
	// ExpUndoLaws is a beyond-the-paper experiment: multi-mode
	// (hyper-exponential) and lognormal human-error undo latencies
	// against the paper's exponential assumption. See UndoLaws.
	ExpUndoLaws = "undo-laws"
)

// All lists every experiment id in presentation order.
func All() []string {
	return []string{ExpFig4, ExpFig5, ExpFig6, ExpFig7, ExpUnderestimation, ExpAblation, ExpSensitivity, ExpUndoLaws}
}

// Run executes one experiment by id and returns its tables.
func Run(id string, o Options) ([]*report.Table, error) {
	switch id {
	case ExpFig4:
		t, err := Fig4(o)
		return wrap(t, err)
	case ExpFig5:
		t, err := Fig5(o)
		return wrap(t, err)
	case ExpFig6:
		return Fig6(o)
	case ExpFig7:
		t, err := Fig7(o)
		return wrap(t, err)
	case ExpUnderestimation:
		t, err := Underestimation(o)
		return wrap(t, err)
	case ExpAblation:
		t, err := Ablation(o)
		return wrap(t, err)
	case ExpSensitivity:
		t, err := Sensitivity(o)
		return wrap(t, err)
	case ExpUndoLaws:
		t, err := UndoLaws(o)
		return wrap(t, err)
	default:
		return nil, fmt.Errorf("repro: unknown experiment %q (have %v)", id, All())
	}
}

func wrap(t *report.Table, err error) ([]*report.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}

// RunAll executes every experiment and writes the tables to w.
func RunAll(w io.Writer, o Options) error {
	for _, id := range All() {
		tables, err := Run(id, o)
		if err != nil {
			return fmt.Errorf("repro: experiment %s: %w", id, err)
		}
		for _, t := range tables {
			if _, err := t.WriteTo(w); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
