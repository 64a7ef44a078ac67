package cache

import (
	"testing"

	"physched/internal/dataspace"
)

func newTestIndex() *Index {
	ix := NewIndex(3, 10_000, EvictLRU)
	ix.Node(0).Insert(dataspace.Iv(0, 100), 1)
	ix.Node(1).Insert(dataspace.Iv(100, 250), 1)
	ix.Node(2).Insert(dataspace.Iv(400, 500), 1)
	return ix
}

func TestPartitionByNode(t *testing.T) {
	ix := newTestIndex()
	pieces := ix.AppendPartitionByNode(dataspace.Iv(50, 450), nil)
	want := []NodePiece{
		{dataspace.Iv(50, 100), 0},
		{dataspace.Iv(100, 250), 1},
		{dataspace.Iv(250, 400), -1},
		{dataspace.Iv(400, 450), 2},
	}
	if len(pieces) != len(want) {
		t.Fatalf("pieces = %v, want %v", pieces, want)
	}
	for i := range want {
		if pieces[i] != want[i] {
			t.Errorf("piece %d = %v, want %v", i, pieces[i], want[i])
		}
	}
}

func TestPartitionByNodeCoversExactly(t *testing.T) {
	ix := newTestIndex()
	// Also create an overlap: node 0 caches part of node 1's range.
	ix.Node(0).Insert(dataspace.Iv(80, 150), 2)
	iv := dataspace.Iv(0, 600)
	pieces := ix.AppendPartitionByNode(iv, nil)
	pos := iv.Start
	for _, p := range pieces {
		if p.Interval.Start != pos || p.Interval.Empty() {
			t.Fatalf("pieces not contiguous at %d: %v", pos, pieces)
		}
		if p.Node >= 0 && !ix.Node(p.Node).Contains(p.Interval) {
			t.Errorf("piece %v not fully cached on node %d", p.Interval, p.Node)
		}
		if p.Node == -1 {
			for n := 0; n < 3; n++ {
				if ix.CachedOn(n, p.Interval) != 0 {
					t.Errorf("piece %v marked uncached but is cached on node %d", p.Interval, n)
				}
			}
		}
		pos = p.Interval.End
	}
	if pos != iv.End {
		t.Errorf("pieces end at %d, want %d", pos, iv.End)
	}
}

func TestPartitionPrefersLongestRun(t *testing.T) {
	ix := NewIndex(2, 10_000, EvictLRU)
	ix.Node(0).Insert(dataspace.Iv(0, 50), 1)
	ix.Node(1).Insert(dataspace.Iv(0, 200), 1)
	pieces := ix.AppendPartitionByNode(dataspace.Iv(0, 200), nil)
	if len(pieces) != 1 || pieces[0].Node != 1 {
		t.Errorf("expected single piece on node 1, got %v", pieces)
	}
}

func TestBestNodeFor(t *testing.T) {
	ix := newTestIndex()
	n, amt := ix.BestNodeFor(dataspace.Iv(0, 300))
	if n != 1 || amt != 150 {
		t.Errorf("BestNodeFor = (%d, %d), want (1, 150)", n, amt)
	}
	n, amt = ix.BestNodeFor(dataspace.Iv(300, 400))
	if n != -1 || amt != 0 {
		t.Errorf("BestNodeFor uncached = (%d, %d), want (-1, 0)", n, amt)
	}
}

func TestCachedOn(t *testing.T) {
	ix := newTestIndex()
	if got := ix.CachedOn(1, dataspace.Iv(0, 300)); got != 150 {
		t.Errorf("CachedOn(1) = %d, want 150", got)
	}
}
