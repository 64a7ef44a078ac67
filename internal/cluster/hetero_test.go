package cluster

import (
	"math"
	"testing"

	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/sim"
)

func TestHeterogeneousNodeSpeeds(t *testing.T) {
	p := testParams()
	p.NodeSpeedFactors = []float64{1, 2, 0.5} // node 1 half speed, node 2 double
	eng := sim.New()
	c := New(eng, p, Config{Caching: true})

	runOn := func(node int, iv dataspace.Interval) float64 {
		start := eng.Now()
		j := mkJob(int64(node), iv)
		c.Dispatch(c.Node(node), &job.Subjob{Job: j, Range: iv})
		eng.Run()
		return eng.Now() - start
	}

	base := runOn(0, dataspace.Iv(0, 1000))
	slow := runOn(1, dataspace.Iv(10_000, 11_000))
	fast := runOn(2, dataspace.Iv(20_000, 21_000))

	// Only the CPU component scales; transfer stays fixed.
	cpu := 1000 * p.EventCPUTime
	transfer := 1000 * (p.EventTimeTape() - p.EventCPUTime)
	if math.Abs(base-(cpu+transfer)) > 1e-6 {
		t.Errorf("base node time %v, want %v", base, cpu+transfer)
	}
	if math.Abs(slow-(2*cpu+transfer)) > 1e-6 {
		t.Errorf("slow node time %v, want %v", slow, 2*cpu+transfer)
	}
	if math.Abs(fast-(0.5*cpu+transfer)) > 1e-6 {
		t.Errorf("fast node time %v, want %v", fast, 0.5*cpu+transfer)
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	p := testParams()
	p.NodeSpeedFactors = []float64{1, 2} // wrong length for 3 nodes
	if err := p.Validate(); err == nil {
		t.Error("mismatched NodeSpeedFactors accepted")
	}
	p.NodeSpeedFactors = []float64{1, -1, 1}
	if err := p.Validate(); err == nil {
		t.Error("negative speed factor accepted")
	}
}

func TestPipelinedTransfersOverlap(t *testing.T) {
	p := testParams()
	p.PipelinedTransfers = true
	eng := sim.New()
	c := New(eng, p, Config{Caching: true})
	j := mkJob(1, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j, Range: j.Range})
	eng.Run()
	// Tape transfer dominates CPU under calibration, so the event time is
	// the transfer time alone.
	transfer := float64(p.EventBytes) / p.TapeBytesPerSec
	want := 1000 * math.Max(p.EventCPUTime, transfer)
	if math.Abs(eng.Now()-want) > 1e-6 {
		t.Errorf("pipelined tape pass took %v, want %v", eng.Now(), want)
	}
	// Cached pass: CPU dominates the fast disk read.
	start := eng.Now()
	j2 := mkJob(2, dataspace.Iv(0, 1000))
	c.Dispatch(c.Node(0), &job.Subjob{Job: j2, Range: j2.Range})
	eng.Run()
	disk := float64(p.EventBytes) / p.DiskBytesPerSec
	want = 1000 * math.Max(p.EventCPUTime, disk)
	if math.Abs(eng.Now()-start-want) > 1e-6 {
		t.Errorf("pipelined cached pass took %v, want %v", eng.Now()-start, want)
	}
}

func TestModelPerNodeTimesMatchGlobalWhenHomogeneous(t *testing.T) {
	p := model.PaperCalibrated()
	for i := 0; i < p.Nodes; i++ {
		if p.EventTimeCachedOn(i) != p.EventTimeCached() {
			t.Fatalf("node %d cached time differs for identical nodes", i)
		}
		if p.EventTimeTapeOn(i) != p.EventTimeTape() {
			t.Fatalf("node %d tape time differs for identical nodes", i)
		}
		if p.EventTimeRemoteOn(i) != p.EventTimeRemote() {
			t.Fatalf("node %d remote time differs for identical nodes", i)
		}
	}
}
