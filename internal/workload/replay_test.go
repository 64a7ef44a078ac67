package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestExportReplayRoundTrip(t *testing.T) {
	p := testParams()
	gen := New(p, rand.New(rand.NewSource(9)), 1.5)
	var buf bytes.Buffer
	if err := Export(&buf, gen, 50); err != nil {
		t.Fatal(err)
	}

	rep, err := NewReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying must give the same stream as a fresh generator with the
	// same seed.
	gen2 := New(p, rand.New(rand.NewSource(9)), 1.5)
	for i := 0; i < 50; i++ {
		want := gen2.Next()
		got := rep.Next()
		if got == nil {
			t.Fatalf("trace exhausted at %d", i)
		}
		if got.Arrival != want.Arrival || got.Range != want.Range {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if rep.Next() != nil {
		t.Error("exhausted trace should return nil")
	}
}

func TestReplayValidation(t *testing.T) {
	cases := []string{
		`{"arrival": 10, "start": 0, "end": 5}` + "\n" + `{"arrival": 5, "start": 0, "end": 5}`, // out of order
		`{"arrival": 1, "start": 5, "end": 5}`,                                                  // empty range
		`{"arrival": 1, "start": 9, "end": 2}`,                                                  // inverted range
		`{"arrival": 1, "start": 0, "end": bad`,                                                 // garbage
	}
	for i, in := range cases {
		if _, err := NewReplay(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	rep, err := NewReplay(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Next() != nil {
		t.Error("empty trace should yield nothing")
	}
}
