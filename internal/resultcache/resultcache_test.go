package resultcache

import (
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

func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	layered, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"memory": NewMemory(), "disk": disk, "layered": layered}
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

			agg := lab.Aggregate{Replicas: 3, Overloaded: 1, SpeedupMean: 8,
				Results: []lab.Result{want}}
			if _, ok := s.GetAggregate(key); ok {
				t.Fatal("aggregate hit on empty store")
			}
			s.PutAggregate(key, agg)
			gotAgg, ok := s.GetAggregate(key)
			if !ok {
				t.Fatal("aggregate miss after Put")
			}
			if gotAgg.Replicas != 3 || gotAgg.Overloaded != 1 || len(gotAgg.Results) != 1 {
				t.Errorf("aggregate changed through the store: %+v", gotAgg)
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

// TestMemoryKeepsEveryStoredField pins Memory's compact entry to
// lab.Result: with every field of a Result set, Put then Get must return
// exactly r.Stored(). A Result field the entry does not carry fails here.
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
	m := NewMemory()
	key := testKey(4)
	m.Put(key, r)
	got, ok := m.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if want := r.Stored(); !reflect.DeepEqual(got, want) {
		t.Errorf("Put→Get changed the result:\n got %+v\nwant %+v", got, want)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestDiskRejectsInvalidKeys(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../etc/passwd",
		strings.Repeat("Z", 64), strings.Repeat("a", 63) + "/"} {
		d.Put(key, sampleResult())
		if _, ok := d.Get(key); ok {
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
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if err := os.WriteFile(filepath.Join(dir, key+".result.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key); ok {
		t.Error("corrupt entry served as a hit")
	}
}

func TestDiskPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	d1.Put(key, sampleResult())
	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get(key); !ok {
		t.Error("entry lost across re-open")
	}
}

func TestLayeredBackfill(t *testing.T) {
	mem := NewMemory()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayered(mem, disk)
	key := testKey(3)
	disk.Put(key, sampleResult()) // only the slow layer holds it
	if mem.Len() != 0 {
		t.Fatal("memory layer unexpectedly warm")
	}
	if _, ok := l.Get(key); !ok {
		t.Fatal("layered miss on disk-resident entry")
	}
	if mem.Len() != 1 {
		t.Error("hit did not back-fill the memory layer")
	}
	if _, ok := mem.Get(key); !ok {
		t.Error("memory layer missing the back-filled entry")
	}
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

	open1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lg.Execute(lab.Options{Cache: open1, Keys: g.Keys()})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 {
		t.Fatalf("cold cache served %d hits", first.CacheHits)
	}

	open2, err := Open(dir) // fresh memory layer; disk carries the state
	if err != nil {
		t.Fatal(err)
	}
	second, err := lg.Execute(lab.Options{Cache: open2, Keys: g.Keys()})
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
