package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRecorderAddAndEvents(t *testing.T) {
	r := New(0, nil)
	r.Add(Event{Time: 1, Kind: JobArrived, JobID: 1})
	r.Add(Event{Time: 2, Kind: JobStarted, JobID: 1})
	if len(r.Events()) != 2 {
		t.Fatalf("Len = %d, want 2", len(r.Events()))
	}
	evs := r.Events()
	if evs[0].Kind != JobArrived || evs[1].Kind != JobStarted {
		t.Errorf("events = %+v", evs)
	}
	// Returned slice is a copy.
	evs[0].JobID = 999
	if r.Events()[0].JobID != 1 {
		t.Error("Events() must return a copy")
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Add(Event{Kind: JobArrived}) // must not panic
	if len(r.Events()) != 0 || r.Events() != nil {
		t.Error("nil recorder should be empty")
	}
}

func TestLimitCapsMemory(t *testing.T) {
	r := New(3, nil)
	for i := 0; i < 10; i++ {
		r.Add(Event{Time: float64(i), Kind: Sample})
	}
	if len(r.Events()) != 3 {
		t.Errorf("Len = %d, want 3", len(r.Events()))
	}
}

func TestStreamingSink(t *testing.T) {
	var buf bytes.Buffer
	r := New(1, &buf) // memory capped, sink unbounded
	for i := 0; i < 5; i++ {
		r.Add(Event{Time: float64(i), Kind: JobArrived, JobID: int64(i)})
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Errorf("sink got %d lines, want 5", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"job_arrived"`) {
		t.Errorf("unexpected JSONL: %q", lines[0])
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := New(0, &buf)
	r.Add(Event{Time: 1.5, Kind: SubjobStarted, JobID: 7, Node: 2, Events: 100})
	r.Add(Event{Time: 9, Kind: Sample, BusyNodes: 3, Backlog: 12, CacheUsed: 5000, CacheHitRate: 0.75})
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != r.Events()[0] || back[1] != r.Events()[1] {
		t.Errorf("round trip mismatch: %+v vs %+v", back, r.Events())
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSummarise(t *testing.T) {
	events := []Event{
		{Kind: JobFinished}, {Kind: JobFinished},
		{Kind: SubjobFinished}, {Kind: SubjobFinished}, {Kind: SubjobFinished},
		{Kind: Sample, BusyNodes: 2, Backlog: 5, CacheHitRate: 0.5},
		{Kind: Sample, BusyNodes: 4, Backlog: 9, CacheHitRate: 0.7},
	}
	s := Summarise(events)
	if s.Jobs != 2 || s.Subjobs != 3 {
		t.Errorf("Jobs=%d Subjobs=%d", s.Jobs, s.Subjobs)
	}
	if s.MeanConcurrency != 3 {
		t.Errorf("MeanConcurrency = %v, want 3", s.MeanConcurrency)
	}
	if s.PeakBacklog != 9 {
		t.Errorf("PeakBacklog = %d, want 9", s.PeakBacklog)
	}
	if math.Abs(s.MeanHitRate-0.6) > 1e-12 {
		t.Errorf("MeanHitRate = %v, want 0.6", s.MeanHitRate)
	}
}

func TestTimeline(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: SubjobStarted, Node: 0},
		{Time: 50, Kind: SubjobFinished, Node: 0},
		{Time: 60, Kind: SubjobStarted, Node: 1},
		// node 1 never finishes: busy until horizon.
	}
	util := Timeline(events, 2, 100)
	if math.Abs(util[0]-0.5) > 1e-12 {
		t.Errorf("node 0 utilisation = %v, want 0.5", util[0])
	}
	if math.Abs(util[1]-0.4) > 1e-12 {
		t.Errorf("node 1 utilisation = %v, want 0.4", util[1])
	}
}

func TestTimelineIgnoresOutOfRangeNodes(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: SubjobStarted, Node: 5},
		{Time: 10, Kind: SubjobFinished, Node: -1},
	}
	util := Timeline(events, 2, 100)
	if util[0] != 0 || util[1] != 0 {
		t.Errorf("util = %v, want zeros", util)
	}
}
