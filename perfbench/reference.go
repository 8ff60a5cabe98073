package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"herald/internal/dist"
	"herald/internal/model"
	"herald/internal/sim"
)

// checker is the correctness gate. Every summary a workload receives
// must be byte-identical to an in-process sim.Run of the same params and
// options, and memoryless runs must agree with the Markov model's
// finite-horizon interval availability. Its work runs after the timed
// windows.
type checker struct {
	want  map[string][]byte // run fingerprint -> reference summary bytes
	bad   map[string]string // run fingerprint -> why the reference failed the model check
	model map[string]float64
}

func newChecker() *checker {
	return &checker{want: map[string][]byte{}, bad: map[string]string{}, model: map[string]float64{}}
}

// check reports whether the operation's summary is correct, and why
// not.
func (c *checker) check(op *opResult) (bool, string) {
	in := op.Run
	want, err := c.reference(in)
	if err != nil {
		return false, err.Error()
	}
	if !bytes.Equal(op.Summary, want) {
		return false, fmt.Sprintf("%s: summary differs from the in-process run", in.Label)
	}
	if why := c.bad[in.fp]; why != "" {
		return false, why
	}
	return true, ""
}

// reference computes, once per fingerprint, the in-process summary and
// its agreement with the Markov model.
func (c *checker) reference(in *runInput) ([]byte, error) {
	if b, ok := c.want[in.fp]; ok {
		return b, nil
	}
	o := in.Options
	o.Workers = procs
	s, err := sim.Run(in.p, o)
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", in.Label, err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	c.want[in.fp] = b
	if k, err := sim.ResolveKernel(in.p, o.Kernel); err == nil && k == sim.KernelMemoryless {
		exact, err := c.exact(in.p, o.MissionTime)
		if err != nil {
			return nil, fmt.Errorf("%s: model: %w", in.Label, err)
		}
		// Four half-widths, plus the whole expected unavailability for
		// runs that saw too few outages to have a half-width, plus a
		// floor for the model's own rounding.
		tol := 4*s.HalfWidth + 1.5*math.Abs(1-exact) + 1e-9
		if d := math.Abs(s.Availability - exact); !(d <= tol) {
			c.bad[in.fp] = fmt.Sprintf("%s: availability %.12f vs model %.12f (|diff| %.3g > tolerance %.3g)",
				in.Label, s.Availability, exact, d, tol)
		}
	}
	return b, nil
}

// exact is the Markov model's interval availability over the mission
// for a paper-default memoryless configuration.
func (c *checker) exact(p sim.ArrayParams, horizon float64) (float64, error) {
	key, err := modelKey(p, horizon)
	if err != nil {
		return 0, err
	}
	if a, ok := c.model[key]; ok {
		return a, nil
	}
	a, err := solveModel(p, horizon)
	if err != nil {
		return 0, err
	}
	c.model[key] = a
	return a, nil
}

// solveModels fills the model cache for every memoryless run among ins,
// two configurations at a time: each solve is single-threaded.
func (c *checker) solveModels(ins []*runInput) error {
	type todo struct {
		key     string
		p       sim.ArrayParams
		horizon float64
	}
	var jobs []todo
	seen := map[string]bool{}
	for _, in := range ins {
		if k, err := sim.ResolveKernel(in.p, in.Options.Kernel); err != nil || k != sim.KernelMemoryless {
			continue
		}
		key, err := modelKey(in.p, in.Options.MissionTime)
		if err != nil || seen[key] {
			continue
		}
		seen[key] = true
		jobs = append(jobs, todo{key, in.p, in.Options.MissionTime})
	}
	avail := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, procs)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			avail[i], errs[i] = solveModel(jobs[i].p, jobs[i].horizon)
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			return errs[i]
		}
		c.model[j.key] = avail[i]
	}
	return nil
}

func modelKey(p sim.ArrayParams, horizon float64) (string, error) {
	lambda, ok := dist.Memoryless(p.TTF)
	if !ok {
		return "", fmt.Errorf("TTF law is not memoryless")
	}
	return fmt.Sprintf("%v/%d/%g/%g/%g", p.Policy, p.Disks, lambda, p.HEP, horizon), nil
}

func solveModel(p sim.ArrayParams, horizon float64) (float64, error) {
	lambda, ok := dist.Memoryless(p.TTF)
	if !ok {
		return 0, fmt.Errorf("TTF law is not memoryless")
	}
	var (
		res *model.Result
		err error
	)
	switch p.Policy {
	case sim.Conventional:
		res, err = model.Conventional(model.Paper(p.Disks, lambda, p.HEP))
	case sim.AutoFailover:
		fp := model.PaperFailover(p.Disks, lambda, p.HEP)
		fp.InstallAsSpare, fp.DownAltService = false, false
		res, err = model.Failover(fp)
	default:
		res, err = model.DualParity(model.Paper(p.Disks, lambda, p.HEP))
	}
	if err != nil {
		return 0, err
	}
	m, err := res.Mission(horizon)
	if err != nil {
		return 0, err
	}
	return m.IntervalAvailability, nil
}
