package queueing

import (
	"math"
	"testing"
)

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: C(a,1) = a.
	for _, a := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(a, 1); math.Abs(got-a) > 1e-12 {
			t.Errorf("ErlangC(%v,1) = %v, want %v", a, got, a)
		}
	}
	// Textbook value: m=2, a=1 → C = 1/3.
	if got := ErlangC(1, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("ErlangC(1,2) = %v, want 1/3", got)
	}
}

func TestMM1WaitMatchesClosedForm(t *testing.T) {
	// With Shape→∞ the correction → 1/2·(1+0) ... for M/M/1 use Shape 1:
	// Wq = rho/(mu - lambda) for M/M/1; Erlang shape 1 = exponential.
	lambda, mean := 0.5, 1.0
	q := MErM{Lambda: lambda, MeanService: mean, Shape: 1, Servers: 1}
	w, err := q.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda * mean
	want := rho * mean / (1 - rho)
	if math.Abs(w-want) > 1e-12 {
		t.Errorf("M/M/1 wait = %v, want %v", w, want)
	}
}

func TestErlangServiceReducesWaiting(t *testing.T) {
	// Lower service variability (higher shape) must reduce waiting.
	base := MErM{Lambda: 0.8, MeanService: 1, Shape: 1, Servers: 1}
	w1, _ := base.MeanWait()
	base.Shape = 4
	w4, _ := base.MeanWait()
	if w4 >= w1 {
		t.Errorf("Erlang-4 wait %v should be below exponential wait %v", w4, w1)
	}
	// (1+1/4)/2 = 0.625 of the M/M/1 value.
	if math.Abs(w4/w1-0.625) > 1e-9 {
		t.Errorf("ratio = %v, want 0.625", w4/w1)
	}
}

func TestUnstableQueue(t *testing.T) {
	q := MErM{Lambda: 2, MeanService: 1, Shape: 4, Servers: 1}
	w, err := q.MeanWait()
	if err != ErrUnstable {
		t.Errorf("err = %v, want ErrUnstable", err)
	}
	if !math.IsInf(w, 1) {
		t.Errorf("wait = %v, want +Inf", w)
	}
}

func TestValidation(t *testing.T) {
	bad := []MErM{
		{Lambda: 0, MeanService: 1, Shape: 1, Servers: 1},
		{Lambda: 1, MeanService: 0, Shape: 1, Servers: 1},
		{Lambda: 1, MeanService: 1, Shape: 0, Servers: 1},
		{Lambda: 1, MeanService: 1, Shape: 1, Servers: 0},
	}
	for i, q := range bad {
		if _, err := q.MeanWait(); err == nil {
			t.Errorf("case %d: invalid queue accepted", i)
		}
	}
}

func TestMaxLoad(t *testing.T) {
	q := MErM{Lambda: 1, MeanService: 4, Shape: 4, Servers: 8}
	if got := q.Utilisation(); got != 0.5 {
		t.Errorf("Utilisation = %v, want 0.5", got)
	}
}

func TestWaitGrowsWithUtilisation(t *testing.T) {
	prev := -1.0
	for _, lam := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		q := MErM{Lambda: lam, MeanService: 1, Shape: 4, Servers: 1}
		w, err := q.MeanWait()
		if err != nil {
			t.Fatal(err)
		}
		if w <= prev {
			t.Errorf("wait not increasing at λ=%v: %v <= %v", lam, w, prev)
		}
		prev = w
	}
}

func TestAllenCunneenExactAtOneServer(t *testing.T) {
	// The Allen–Cunneen approximation coincides with the exact
	// Pollaczek–Khinchine formula for M/G/1.
	for _, shape := range []int{1, 2, 4, 8} {
		for _, rho := range []float64{0.2, 0.5, 0.8, 0.95} {
			q := MErM{Lambda: rho, MeanService: 1, Shape: shape, Servers: 1}
			ac, err := q.MeanWait()
			if err != nil {
				t.Fatal(err)
			}
			pk, err := q.PollaczekKhinchine()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ac-pk) > 1e-12*math.Max(1, pk) {
				t.Errorf("shape %d rho %v: AC %v != PK %v", shape, rho, ac, pk)
			}
		}
	}
}

func TestPollaczekKhinchineRejectsMultiServer(t *testing.T) {
	q := MErM{Lambda: 1, MeanService: 0.1, Shape: 4, Servers: 2}
	if _, err := q.PollaczekKhinchine(); err == nil {
		t.Error("multi-server accepted")
	}
	q = MErM{Lambda: 2, MeanService: 1, Shape: 4, Servers: 1}
	if w, err := q.PollaczekKhinchine(); err != ErrUnstable || !math.IsInf(w, 1) {
		t.Errorf("unstable PK = %v, %v", w, err)
	}
}
