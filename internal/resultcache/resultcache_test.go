package resultcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"physched/internal/lab"
	"physched/internal/metrics"
	"physched/internal/spec"
)

func testKey(b byte) string {
	return strings.Repeat(string([]byte{'a' + b%6}), 64)
}

func sampleResult() lab.Result {
	return lab.Result{
		PolicyName: "outoforder", Load: 1.5,
		AvgSpeedup: 9.5, AvgWaiting: 120.25, MaxWaiting: 900,
		P99Waiting: 700.5, AvgProc: 2000, MeasuredJobs: 600, SimTime: 1e6,
	}
}

func sampleAggregate() lab.Aggregate {
	return lab.Aggregate{Replicas: 3, Overloaded: 1, SpeedupMean: 8,
		Results: []lab.Result{sampleResult()}}
}

func mustOpen(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stores(t *testing.T) map[string]*Store {
	t.Helper()
	return map[string]*Store{
		"memory": NewMemory(),
		"disk":   mustOpen(t, filepath.Join(t.TempDir(), "cache")),
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := testKey(0)
			if _, ok := s.Get(key); ok {
				t.Fatal("hit on empty store")
			}
			want := sampleResult()
			s.Put(key, want)
			got, ok := s.Get(key)
			if !ok {
				t.Fatal("miss after Put")
			}
			a, _ := json.Marshal(want)
			b, _ := json.Marshal(got)
			if string(a) != string(b) {
				t.Errorf("result changed through the store:\n%s\n%s", b, a)
			}

			if _, ok := s.GetAggregate(key); ok {
				t.Fatal("aggregate hit on empty store")
			}
			s.PutAggregate(key, sampleAggregate())
			gotAgg, ok := s.GetAggregate(key)
			if !ok {
				t.Fatal("aggregate miss after Put")
			}
			if gotAgg.Replicas != 3 || gotAgg.Overloaded != 1 || len(gotAgg.Results) != 1 {
				t.Errorf("aggregate changed through the store: %+v", gotAgg)
			}
			want2 := Stats{Hits: 1, Misses: 1, Puts: 1, AggHits: 1, AggMisses: 1, AggPuts: 1}
			if st := s.Stats(); st != want2 {
				t.Errorf("Stats = %+v, want %+v", st, want2)
			}
		})
	}
}

// fillDistinct sets every field reachable from v (bools, numbers, strings
// and nested structs) to a non-zero value that no other numeric field
// shares, so a field the memory entry drops or swaps shows up as a
// difference. A kind it does not know fails the test rather than staying
// zero.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.String:
		v.SetString(strings.Repeat("s", *next))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	default:
		t.Fatalf("fillDistinct: no fill for a %s (%s)", v.Kind(), v.Type())
	}
}

// TestMemoryKeepsEveryStoredField pins the compact memory entry, and the
// disk file behind it, to lab.Result: with every field of a Result set,
// Put then Get must return exactly r.Stored(), from memory and from a
// second store reading the file. A Result field either form does not
// carry fails here.
func TestMemoryKeepsEveryStoredField(t *testing.T) {
	var r lab.Result
	rv := reflect.ValueOf(&r).Elem()
	next := 0
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Type().Field(i); f.Name {
		case "Scenario": // closures and sources; Stored drops it
			r.Scenario = lab.Scenario{Load: 2, Seed: 3, WarmupJobs: 4}
		case "Collector": // Stored drops it
			r.Collector = &metrics.Collector{}
		default:
			fillDistinct(t, rv.Field(i), &next)
		}
		if rv.Field(i).IsZero() {
			t.Fatalf("field %s left zero", rv.Type().Field(i).Name)
		}
	}
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := testKey(4)
	s.Put(key, r)
	for name, from := range map[string]*Store{"memory": s, "disk": mustOpen(t, dir)} {
		got, ok := from.Get(key)
		if !ok {
			t.Fatalf("%s: miss after Put", name)
		}
		if want := r.Stored(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Put→Get changed the result:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestDiskRejectsInvalidKeys(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, key := range []string{"", "short", "../../etc/passwd",
		strings.Repeat("Z", 64), strings.Repeat("a", 63) + "/"} {
		s.Put(key, sampleResult())
		if _, ok := s.Get(key); ok {
			t.Errorf("invalid key %q stored", key)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("invalid keys left %d files in the store", len(entries))
	}
}

func TestDiskSurvivesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := testKey(1)
	if err := os.WriteFile(filepath.Join(dir, key+".result.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Error("corrupt entry served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Errorf("Stats = %+v, want one corrupt miss", st)
	}
}

func TestDiskPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	key := testKey(2)
	mustOpen(t, dir).Put(key, sampleResult())
	if _, ok := mustOpen(t, dir).Get(key); !ok {
		t.Error("entry lost across re-open")
	}
}

// TestGetCopiesDiskHitIntoMemory: an entry only the directory holds is
// served from memory after its first Get, even once the file is gone.
func TestGetCopiesDiskHitIntoMemory(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3)
	mustOpen(t, dir).Put(key, sampleResult())
	s := mustOpen(t, dir)
	if _, ok := s.Get(key); !ok {
		t.Fatal("miss on a disk-resident entry")
	}
	if err := os.Remove(filepath.Join(dir, key+".result.json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Error("disk hit was not copied into memory")
	}
}

// TestPutLeavesHeldKeyAlone: a content key's value never changes, so a
// second Put of a key the store holds writes nothing. The file removed
// after the first Put stays gone.
func TestPutLeavesHeldKeyAlone(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := testKey(5)
	for kind, put := range map[string]func(){
		"result":    func() { s.Put(key, sampleResult()) },
		"aggregate": func() { s.PutAggregate(key, sampleAggregate()) },
	} {
		path := filepath.Join(dir, key+"."+kind+".json")
		put()
		if err := os.Remove(path); err != nil {
			t.Fatalf("%s: first Put wrote no file: %v", kind, err)
		}
		put()
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: second Put of a held key rewrote its file", kind)
		}
	}
	if st := s.Stats(); st.Puts != 2 || st.AggPuts != 2 {
		t.Errorf("Stats = %+v, want every Put counted", st)
	}
}

// TestBitFlipsReadAsMisses flips every bit of a stored result entry and
// of a stored aggregate entry in turn: each damaged file must read as a
// miss, counted as corrupt, never as a hit with another value.
func TestBitFlipsReadAsMisses(t *testing.T) {
	dir := t.TempDir()
	key := testKey(0)
	s := mustOpen(t, dir)
	s.Put(key, sampleResult())
	s.PutAggregate(key, sampleAggregate())
	for kind, get := range map[string]func(*Store) bool{
		"result":    func(s *Store) bool { _, ok := s.Get(key); return ok },
		"aggregate": func(s *Store) bool { _, ok := s.GetAggregate(key); return ok },
	} {
		path := filepath.Join(dir, key+"."+kind+".json")
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !get(mustOpen(t, dir)) {
			t.Fatalf("%s: intact entry read as a miss", kind)
		}
		flipped := make([]byte, len(orig))
		hits := 0
		for bit := 0; bit < 8*len(orig); bit++ {
			copy(flipped, orig)
			flipped[bit/8] ^= 1 << (bit % 8)
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh := mustOpen(t, dir)
			if get(fresh) {
				hits++
			} else if fresh.Stats().Corrupt != 1 {
				t.Fatalf("%s: bit %d: miss not counted as corrupt", kind, bit)
			}
		}
		if hits > 0 {
			t.Errorf("%s: %d of %d single-bit flips still read as hits", kind, hits, 8*len(orig))
		}
	}
}

// FuzzStoreDiskEntry writes arbitrary bytes at a valid key's result and
// aggregate paths: Get must never panic, and a hit is allowed only when
// the bytes are exactly the file Put writes for the value served.
func FuzzStoreDiskEntry(f *testing.F) {
	key := testKey(0)
	seed := f.TempDir()
	s := mustOpen(f, seed)
	s.Put(key, sampleResult())
	s.PutAggregate(key, sampleAggregate())
	for _, kind := range []string{"result", "aggregate"} {
		b, err := os.ReadFile(filepath.Join(seed, key+"."+kind+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, kind := range []string{"result", "aggregate"} {
			if err := os.WriteFile(filepath.Join(dir, key+"."+kind+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := mustOpen(t, dir)
		back := t.TempDir()
		rewrite := mustOpen(t, back)
		if r, ok := s.Get(key); ok {
			rewrite.Put(key, r)
		}
		if a, ok := s.GetAggregate(key); ok {
			rewrite.PutAggregate(key, a)
		}
		for _, kind := range []string{"result", "aggregate"} {
			if b, err := os.ReadFile(filepath.Join(back, key+"."+kind+".json")); err == nil && !bytes.Equal(b, data) {
				t.Errorf("%s hit on bytes Put would not write:\n got %q\nwant %q", kind, data, b)
			}
		}
	})
}

func TestConcurrentAccess(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := testKey(byte(i % 4))
						s.Put(key, sampleResult())
						s.Get(key)
						s.PutAggregate(key, sampleAggregate())
						s.GetAggregate(key)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestDiskCacheDrivesGridExecution wires a disk-backed store into
// lab.Grid.Execute through the spec layer: a second execution in a fresh
// process-like store (same directory, new Open) re-simulates nothing.
func TestDiskCacheDrivesGridExecution(t *testing.T) {
	g := spec.Grid{
		Base: spec.Spec{
			Params:      spec.Params{Nodes: 3, CacheGB: 6, MeanJobEvents: 1_000, DataspaceGB: 60},
			Policy:      spec.Policy{Name: "outoforder"},
			Load:        1,
			Seed:        5,
			WarmupJobs:  10,
			MeasureJobs: 50,
		},
		Loads: []float64{0.8, 1.2},
		Seeds: []int64{1, 2},
	}
	lg, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cache")

	first, err := lg.Execute(lab.Options{Cache: mustOpen(t, dir), Keys: g.Keys()})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 {
		t.Fatalf("cold cache served %d hits", first.CacheHits)
	}

	// A fresh store: only the directory carries the state.
	second, err := lg.Execute(lab.Options{Cache: mustOpen(t, dir), Keys: g.Keys()})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != len(second.Results) {
		t.Errorf("re-execution against the disk store re-simulated %d of %d cells",
			len(second.Results)-second.CacheHits, len(second.Results))
	}
	a, _ := json.Marshal(first.Results)
	b, _ := json.Marshal(second.Results)
	if string(a) != string(b) {
		t.Errorf("disk-served results diverged:\n%s\n%s", b, a)
	}
}
