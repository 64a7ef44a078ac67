package spec

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"physched/internal/lab"
	"physched/internal/model"
	"physched/internal/sched"
)

// smallSpec is a fast, valid spec for compile-and-run tests.
func smallSpec() Spec {
	return Spec{
		Params: Params{
			Nodes:         4,
			CacheGB:       10,
			MeanJobEvents: 2_000,
			DataspaceGB:   200,
		},
		Policy:      Policy{Name: "outoforder"},
		Load:        1.2,
		Seed:        7,
		WarmupJobs:  30,
		MeasureJobs: 120,
	}
}

func TestSpecRoundTripsThroughJSON(t *testing.T) {
	s := smallSpec()
	s.Workload = Workload{Name: "daynight", Swing: 0.5}
	s.DelayIncluded = true
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip changed the spec:\n%+v\nwant\n%+v", back, s)
	}
}

// TestCanonicalEncodeDecodeEncodeIdentity is the canonicalisation
// contract: decoding a canonical encoding and re-encoding it is
// byte-identical, across a table of representative specs.
func TestCanonicalEncodeDecodeEncodeIdentity(t *testing.T) {
	table := []Spec{
		smallSpec(),
		{Policy: Policy{Name: "farm"}, Load: 0.9},
		{Policy: Policy{Name: "delayed", DelayHours: 11.5, StripeEvents: 200}, Load: 2.75,
			Params: Params{Preset: "stated", HotWeight: -1}},
		{Policy: Policy{Name: "adaptive", StripeEvents: 100}, Load: 3.0001,
			Workload: Workload{Name: "daynight", Swing: 0.25, PeakJobsPerHour: 4.5},
			Seed:     -3, OverloadBacklog: 512, MaxSimTimeDays: 400.5, DelayIncluded: true},
		{SchemaVersion: 1, Policy: Policy{Name: "replication", MaxWaitHours: 24}, Load: 1.0 / 3.0,
			Params: Params{PipelinedTransfers: true}},
	}
	for i, s := range table {
		c, err := s.Canonical()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back, err := Parse(bytes.NewReader(c))
		if err != nil {
			t.Fatalf("case %d: decoding canonical form: %v", i, err)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatalf("case %d: re-canonicalising: %v", i, err)
		}
		if !bytes.Equal(c, c2) {
			t.Errorf("case %d: canonical form unstable:\n%s\n%s", i, c, c2)
		}
	}
}

// TestCanonicalNormalisesDefaults: equivalent spellings of the defaults
// share one canonical form and therefore one hash.
func TestCanonicalNormalisesDefaults(t *testing.T) {
	a := smallSpec() // empty preset, empty workload, version 0
	b := smallSpec()
	b.SchemaVersion = Version
	b.Params.Preset = "calibrated"
	b.Workload.Name = "poisson"
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("equivalent specs hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash %q is not hex SHA-256", ha)
	}
}

func TestHashSensitivity(t *testing.T) {
	base := smallSpec()
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Spec){
		"load":     func(s *Spec) { s.Load = 1.3 },
		"seed":     func(s *Spec) { s.Seed = 8 },
		"policy":   func(s *Spec) { s.Policy.Name = "farm" },
		"args":     func(s *Spec) { s.Policy.MaxWaitHours = 24 },
		"nodes":    func(s *Spec) { s.Params.Nodes = 5 },
		"workload": func(s *Spec) { s.Workload = Workload{Name: "daynight", Swing: 0.1} },
		"window":   func(s *Spec) { s.MeasureJobs = 121 },
	}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == h0 {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

// TestHashAllocs pins what hashing a spec allocates: encoding and
// digesting it, and neither a workload source nor a policy. Validation
// once built and seeded a generator per hash, which took a 607-word
// random source from the freelist and cost 3 to 5 allocations more, and
// built a policy only to read its error, which cost one more. Hash
// allocates 4 times, up to 6 under the race detector (hashAllocLimit).
func TestHashAllocs(t *testing.T) {
	for _, wl := range []Workload{{}, {Name: "daynight", Swing: 0.5}} {
		s := smallSpec()
		s.Workload = wl
		if _, err := s.Hash(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { s.Hash() }); n > hashAllocLimit {
			t.Errorf("workload %q: Hash allocates %v times, want at most %d", wl.Name, n, hashAllocLimit)
		}
	}
}

// BenchmarkSpecHash measures hashing one cell's spec, which the lab and
// physchedd do for every cell of every grid: validate, canonicalise,
// digest.
func BenchmarkSpecHash(b *testing.B) {
	s := smallSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Hash(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := map[string]Spec{
		"missing policy":    {Load: 1},
		"unknown policy":    {Policy: Policy{Name: "nope"}, Load: 1},
		"unknown workload":  {Policy: Policy{Name: "farm"}, Workload: Workload{Name: "nope"}, Load: 1},
		"bad workload args": {Policy: Policy{Name: "farm"}, Workload: Workload{Name: "daynight", Swing: 2}, Load: 1},
		"zero load":         {Policy: Policy{Name: "farm"}},
		"negative load":     {Policy: Policy{Name: "farm"}, Load: -1},
		"bad preset":        {Policy: Policy{Name: "farm"}, Load: 1, Params: Params{Preset: "bogus"}},
		"bad version":       {SchemaVersion: 99, Policy: Policy{Name: "farm"}, Load: 1},
		"negative window":   {Policy: Policy{Name: "farm"}, Load: 1, WarmupJobs: -1},
		"negative backlog":  {Policy: Policy{Name: "farm"}, Load: 1, OverloadBacklog: -1},
		"bad policy args":   {Policy: Policy{Name: "delayed", DelayHours: -2}, Load: 1},
		"dead policy args":  {Policy: Policy{Name: "farm", DelayHours: 48}, Load: 1},
		"dead workload arg": {Policy: Policy{Name: "farm"}, Workload: Workload{Name: "poisson", Swing: 0.5}, Load: 1},
		"negative nodes":    {Policy: Policy{Name: "farm"}, Load: 1, Params: Params{Nodes: -5}},
		"negative cache":    {Policy: Policy{Name: "farm"}, Load: 1, Params: Params{CacheGB: -1}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := s.Scenario(); err == nil {
			t.Errorf("%s: compiled", name)
		}
		if _, err := s.Canonical(); err == nil {
			t.Errorf("%s: canonicalised", name)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown spec field accepted")
	}
	if _, err := ParseGrid(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown grid field accepted")
	}
}

// TestScenarioMatchesClosureScenario: a compiled poisson spec must run
// bit-identically to the equivalent closure-built lab.Scenario, so the
// declarative API is a drop-in replacement.
func TestScenarioMatchesClosureScenario(t *testing.T) {
	compiled, err := smallSpec().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	p := model.PaperCalibrated()
	p.Nodes = 4
	p.CacheBytes = 10 * model.GB
	p.MeanJobEvents = 2_000
	p.DataspaceBytes = 200 * model.GB
	closure := lab.Scenario{
		Params:      p,
		NewPolicy:   func() sched.Policy { return sched.NewOutOfOrder() },
		Load:        1.2,
		Seed:        7,
		WarmupJobs:  30,
		MeasureJobs: 120,
	}
	a, err := lab.RunE(compiled)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.RunE(closure)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("spec-compiled run diverged from closure run:\n%s\n%s", ja, jb)
	}
}

func TestScenarioAppliesEveryField(t *testing.T) {
	s := smallSpec()
	s.Policy = Policy{Name: "delayed", DelayHours: 11, StripeEvents: 200}
	s.Workload = Workload{Name: "daynight", Swing: 0.3}
	s.OverloadBacklog = 777
	s.MaxSimTimeDays = 10
	s.DelayIncluded = true
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params.Nodes != 4 || sc.Params.CacheBytes != 10*model.GB {
		t.Errorf("params not applied: %+v", sc.Params)
	}
	if sc.OverloadBacklog != 777 || sc.MaxSimTime != 10*model.Day || !sc.DelayIncluded {
		t.Errorf("scenario fields not applied: %+v", sc)
	}
	pol := sc.NewPolicy()
	if pol.Name() != "delayed" {
		t.Errorf("policy = %q", pol.Name())
	}
	if d := pol.(*sched.Delayed); d.Period != 11*model.Hour || d.Stripe != 200 {
		t.Errorf("policy args not applied: %+v", d)
	}
	src := sc.NewWorkload(3, 1.2)
	if src == nil || src.Next() == nil {
		t.Error("workload closure broken")
	}
}

// FuzzCanonicalRoundTrip drives the canonicalisation identity over
// machine-picked field values: for every valid spec the fuzzer reaches,
// encode→decode→encode of the canonical form must be byte-identical and
// the hash stable.
func FuzzCanonicalRoundTrip(f *testing.F) {
	f.Add(int64(1), 1.5, "outoforder", 0.0, int64(0), 0.0, "", 0.0, 10, 50, false)
	f.Add(int64(-9), 0.25, "delayed", 11.0, int64(200), 0.0, "daynight", 0.5, 0, 0, true)
	f.Add(int64(0), 3.46, "adaptive", 0.0, int64(100), 48.0, "poisson", 0.0, 1, 1, false)
	f.Fuzz(func(t *testing.T, seed int64, load float64, policy string,
		delayHours float64, stripe int64, maxWait float64,
		wl string, swing float64, warmup, measure int, delayIncl bool) {
		s := Spec{
			Policy:        Policy{Name: policy, DelayHours: delayHours, StripeEvents: stripe, MaxWaitHours: maxWait},
			Workload:      Workload{Name: wl, Swing: swing},
			Load:          load,
			Seed:          seed,
			WarmupJobs:    warmup,
			MeasureJobs:   measure,
			DelayIncluded: delayIncl,
		}
		c, err := s.Canonical()
		if err != nil {
			t.Skip() // invalid spec: rejection, not canonicalisation, is under test elsewhere
		}
		back, err := Parse(bytes.NewReader(c))
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, c)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatalf("canonical form does not re-canonicalise: %v\n%s", err, c)
		}
		if !bytes.Equal(c, c2) {
			t.Fatalf("canonical form unstable:\n%s\n%s", c, c2)
		}
		h1, err1 := s.Hash()
		h2, err2 := back.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("hash unstable: %q (%v) vs %q (%v)", h1, err1, h2, err2)
		}
	})
}

// FuzzGridCellKeyStable: a grid's per-cell keys must be identical before
// and after a JSON round trip of the grid — the property content-addressed
// caching across processes (physchedd) rests on.
func FuzzGridCellKeyStable(f *testing.F) {
	f.Add(int64(1), 3, 2, 2)
	f.Add(int64(42), 1, 1, 1)
	f.Fuzz(func(t *testing.T, seed int64, variants, loads, seeds int) {
		if variants < 0 || variants > 4 || loads < 1 || loads > 4 || seeds < 1 || seeds > 4 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		names := sched.Names()
		g := Grid{Base: smallSpec()}
		for i := 0; i < variants; i++ {
			pol := Policy{Name: names[rng.Intn(len(names))]}
			g.Variants = append(g.Variants, Variant{Label: string(rune('a' + i)), Policy: &pol})
		}
		for i := 0; i < loads; i++ {
			g.Loads = append(g.Loads, 0.5+rng.Float64())
		}
		for i := 0; i < seeds; i++ {
			g.Seeds = append(g.Seeds, rng.Int63n(1000))
		}
		c, err := g.Canonical()
		if err != nil {
			t.Skip()
		}
		back, err := ParseGrid(bytes.NewReader(c))
		if err != nil {
			t.Fatalf("canonical grid does not parse: %v", err)
		}
		lg, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		keysA, keysB := g.Keys(), back.Keys()
		for _, cell := range lg.Cells() {
			ka, oka := keysA(cell)
			kb, okb := keysB(cell)
			if !oka || !okb || ka != kb {
				t.Fatalf("cell key unstable across round trip: %q/%v vs %q/%v", ka, oka, kb, okb)
			}
		}
	})
}
