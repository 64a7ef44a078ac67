package freelist

import (
	"sync"
	"testing"
)

// TestListIsAStack: Get on an empty list reports so, and values come
// back last in, first out.
func TestListIsAStack(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported a value")
	}
	l.Put(1)
	l.Put(2)
	for _, want := range []int{2, 1} {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("the list handed out more values than it was given")
	}
}

// TestListHoldsNoMoreThanPeakUse: goroutines that each take a value, or
// make one when the list is empty, and give it back leave the list with
// at most one value per goroutine (run it under -race).
func TestListHoldsNoMoreThanPeakUse(t *testing.T) {
	var l List[*int]
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := l.Get()
				if !ok {
					v = new(int)
				}
				*v++
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	n, total := 0, 0
	for v, ok := l.Get(); ok; v, ok = l.Get() {
		n++
		total += *v
	}
	if n > workers || total != workers*1000 {
		t.Errorf("list holds %d values with %d uses, want at most %d values with %d uses", n, total, workers, workers*1000)
	}
}
