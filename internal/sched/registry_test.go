package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"physched/internal/model"
)

func TestRegistryBuiltins(t *testing.T) {
	want := map[string]string{
		"farm":          "farm",
		"splitting":     "splitting",
		"cacheoriented": "cacheoriented",
		"outoforder":    "outoforder",
		"replication":   "outoforder+replication",
		"delayed":       "delayed",
		"adaptive":      "adaptive",
		"partitioned":   "partitioned",
		"affinefarm":    "affinefarm",
	}
	for name, policyName := range want {
		p, err := New(name, Args{})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if got := p.Name(); got != policyName {
			t.Errorf("New(%q).Name() = %q, want %q", name, got, policyName)
		}
	}
	sorted := []string{"adaptive", "affinefarm", "cacheoriented", "delayed",
		"farm", "outoforder", "partitioned", "replication", "splitting"}
	names := Names()
	if !slices.Equal(names, sorted) {
		t.Errorf("Names() = %v, want %v", names, sorted)
	}
	// Names hands out a copy: a caller's edit must not reach the table.
	names[0] = "mutated"
	if got := Names(); !slices.Equal(got, sorted) {
		t.Errorf("Names() after editing a returned slice = %v, want %v", got, sorted)
	}
}

func TestRegistryArgsApplied(t *testing.T) {
	p, err := New("outoforder", Args{MaxWaitHours: 24})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(*OutOfOrder).MaxWait; got != 24*model.Hour {
		t.Errorf("MaxWait = %v, want %v", got, 24*model.Hour)
	}
	d, err := New("delayed", Args{DelayHours: 11, StripeEvents: 200})
	if err != nil {
		t.Fatal(err)
	}
	if dd := d.(*Delayed); dd.Period != 11*model.Hour || dd.Stripe != 200 {
		t.Errorf("delayed args not applied: period=%v stripe=%d", dd.Period, dd.Stripe)
	}
	// Defaults: zero Args must build every built-in (stripe falls back to
	// the paper's default rather than panicking in NewDelayed).
	d, err = New("delayed", Args{})
	if err != nil {
		t.Fatal(err)
	}
	if dd := d.(*Delayed); dd.Stripe != DefaultStripe {
		t.Errorf("default stripe = %d, want %d", dd.Stripe, DefaultStripe)
	}
}

func TestRegistryUnknownAndMissingNames(t *testing.T) {
	if _, err := New("bogus", Args{}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy: err = %v", err)
	}
	if _, err := New("", Args{}); err == nil {
		t.Error("empty policy name accepted")
	}
}

func TestRegistryInvalidArgs(t *testing.T) {
	if _, err := New("delayed", Args{DelayHours: -1}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := New("outoforder", Args{MaxWaitHours: -1}); err == nil {
		t.Error("negative aging limit accepted")
	}
}

// TestRegistryRejectsDeadArgs: an argument the named policy does not
// consume must fail, not silently run a different scenario than the spec
// suggests.
func TestRegistryRejectsDeadArgs(t *testing.T) {
	cases := []struct {
		name string
		args Args
	}{
		{"farm", Args{DelayHours: 48}},
		{"farm", Args{StripeEvents: 500}},
		{"splitting", Args{MaxWaitHours: 24}},
		{"cacheoriented", Args{DelayHours: 1}},
		{"partitioned", Args{StripeEvents: 1}},
		{"affinefarm", Args{MaxWaitHours: 1}},
		{"outoforder", Args{DelayHours: 48}},
		{"outoforder", Args{StripeEvents: 500}},
		{"replication", Args{DelayHours: 48}},
		{"delayed", Args{MaxWaitHours: 24}},
		{"adaptive", Args{DelayHours: 11}},
		{"adaptive", Args{MaxWaitHours: 24}},
	}
	for _, tc := range cases {
		if _, err := New(tc.name, tc.args); err == nil {
			t.Errorf("%s with dead args %+v accepted", tc.name, tc.args)
		}
	}
}

// TestCheckMatchesNew requires Check to return exactly New's error for
// every built-in name, the empty name and an unknown one, over zero,
// positive and negative arguments, so spec validation (which calls Check)
// and compilation (which calls New) cannot drift apart.
func TestCheckMatchesNew(t *testing.T) {
	args := []Args{
		{},
		{DelayHours: 2}, {StripeEvents: 500}, {MaxWaitHours: 24},
		{DelayHours: -2}, {StripeEvents: -500}, {MaxWaitHours: -24},
	}
	for _, name := range append(Names(), "", "bogus") {
		for _, a := range args {
			checkErr := Check(name, a)
			p, newErr := New(name, a)
			if fmt.Sprint(checkErr) != fmt.Sprint(newErr) {
				t.Errorf("%q %+v: Check error %q, New error %q", name, a, checkErr, newErr)
			}
			if (p == nil) != (newErr != nil) {
				t.Errorf("%q %+v: New returned policy %v with error %v", name, a, p, newErr)
			}
		}
	}
}
