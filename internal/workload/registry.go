package workload

import (
	"fmt"
	"sort"
	"sync"

	"physched/internal/freelist"
	"physched/internal/model"
)

// Args carries the serialisable inputs a registered workload kind may
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

// Kind is one registered workload kind. Check reports whether the
// arguments are valid for the kind; Build constructs a fresh source from
// arguments Check accepted. Sources are stateful, so Build runs once per
// simulation run, while Check builds and seeds nothing: validating a
// spec costs no generator.
type Kind struct {
	Check func(Args) error
	Build func(Args) Source
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Kind{}
)

// Register makes a workload kind constructible by name through Resolve,
// extending the set of job streams reachable from spec files and the
// physchedd service without touching this package. It rejects empty names,
// names already taken (including the built-ins) and kinds missing either
// function.
func Register(name string, k Kind) error {
	if name == "" {
		return fmt.Errorf("workload: Register with empty workload name")
	}
	if k.Check == nil || k.Build == nil {
		return fmt.Errorf("workload: Register %q with a nil Check or Build", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("workload: kind %q already registered", name)
	}
	registry[name] = k
	return nil
}

// Resolve checks the arguments of the named workload kind and builds it.
// The empty name resolves to "poisson", the paper's homogeneous stream.
func Resolve(name string, a Args) (Source, error) {
	k, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := k.Check(a); err != nil {
		return nil, err
	}
	return k.Build(a), nil
}

// Check reports the error Resolve would return for the same name and
// arguments, without building a source.
func Check(name string, a Args) error {
	k, err := lookup(name)
	if err != nil {
		return err
	}
	return k.Check(a)
}

func lookup(name string) (Kind, error) {
	if name == "" {
		name = "poisson"
	}
	registryMu.RLock()
	k, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return Kind{}, fmt.Errorf("workload: unknown kind %q (known: %v)", name, Names())
	}
	return k, nil
}

// Names lists the registered workload kinds, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
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

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(Register("poisson", Kind{
		Check: func(a Args) error {
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
		Build: func(a Args) Source { return NewSeeded(a.Params, a.Seed, a.JobsPerHour) },
	}))
	must(Register("daynight", Kind{
		Check: func(a Args) error {
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
		Build: func(a Args) Source {
			g := NewInhomogeneous(a.Params, freelist.Rand(a.Seed), DayNight(a.JobsPerHour, a.Swing), dayNightPeak(a))
			g.ownRNG = true
			return g
		},
	}))
}
