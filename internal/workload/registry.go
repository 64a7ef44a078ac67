package workload

import (
	"fmt"

	"physched/internal/freelist"
	"physched/internal/model"
)

// Args carries the serialisable inputs a built-in workload kind may
// consume. Params, Seed and JobsPerHour are bound per run by the lab (the
// grid sweeps them); the remaining fields are spec-level knobs of the
// individual workload kinds.
type Args struct {
	Params      model.Params
	Seed        int64
	JobsPerHour float64

	// Swing is the day/night load contrast in [0,1) for the "daynight"
	// kind: the instantaneous rate is JobsPerHour·(1 + Swing·sin(2πt/day)).
	Swing float64
	// PeakJobsPerHour bounds the thinning envelope of inhomogeneous kinds;
	// zero means the kind's natural peak (daynight: JobsPerHour·(1+Swing)).
	PeakJobsPerHour float64
}

// kind is one built-in workload kind. check reports whether the
// arguments are valid for the kind; build constructs a fresh source from
// arguments check accepted. Sources are stateful, so build runs once per
// simulation run, while check builds and seeds nothing: validating a
// spec costs no generator.
type kind struct {
	name  string
	check func(Args) error
	build func(Args) Source
}

// kinds is the fixed set of job streams reachable from spec files and the
// physchedd service, sorted by name.
var kinds = [...]kind{
	{
		name: "daynight",
		check: func(a Args) error {
			if a.JobsPerHour <= 0 {
				return fmt.Errorf("workload: daynight needs a positive mean rate, got %v jobs/h", a.JobsPerHour)
			}
			if a.Swing < 0 || a.Swing >= 1 {
				return fmt.Errorf("workload: daynight swing %v out of [0,1)", a.Swing)
			}
			if own := a.JobsPerHour * (1 + a.Swing); dayNightPeak(a) < own {
				return fmt.Errorf("workload: daynight peak %v below the cycle's own peak %v", a.PeakJobsPerHour, own)
			}
			return nil
		},
		build: func(a Args) Source {
			g := NewInhomogeneous(a.Params, freelist.Rand(a.Seed), DayNight(a.JobsPerHour, a.Swing), dayNightPeak(a))
			g.ownRNG = true
			return g
		},
	},
	{
		name: "poisson",
		check: func(a Args) error {
			if a.JobsPerHour <= 0 {
				return fmt.Errorf("workload: poisson needs a positive rate, got %v jobs/h", a.JobsPerHour)
			}
			// Arguments the kind does not consume must fail as loudly as
			// misspelled field names: a spec with a dead swing would
			// silently simulate a homogeneous stream.
			if a.Swing != 0 {
				return fmt.Errorf("workload: poisson does not take swing")
			}
			if a.PeakJobsPerHour != 0 {
				return fmt.Errorf("workload: poisson does not take peak_jobs_per_hour")
			}
			return nil
		},
		build: func(a Args) Source { return NewSeeded(a.Params, a.Seed, a.JobsPerHour) },
	},
}

// Resolve checks the arguments of the named workload kind and builds it.
// The empty name resolves to "poisson", the paper's homogeneous stream.
func Resolve(name string, a Args) (Source, error) {
	k, err := check(name, a)
	if err != nil {
		return nil, err
	}
	return k.build(a), nil
}

// Check reports the error Resolve would return for the same name and
// arguments, without building a source.
func Check(name string, a Args) error {
	_, err := check(name, a)
	return err
}

// check finds the named kind and runs its check of a.
func check(name string, a Args) (*kind, error) {
	if name == "" {
		name = "poisson"
	}
	for i := range kinds {
		if k := &kinds[i]; k.name == name {
			return k, k.check(a)
		}
	}
	return nil, fmt.Errorf("workload: unknown kind %q (known: %v)", name, Names())
}

// Names lists the built-in workload kinds, sorted.
func Names() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.name
	}
	return out
}

// dayNightPeak is the thinning envelope of a daynight stream: the given
// peak, or the cycle's own peak when none is given.
func dayNightPeak(a Args) float64 {
	if a.PeakJobsPerHour != 0 {
		return a.PeakJobsPerHour
	}
	return a.JobsPerHour * (1 + a.Swing)
}
