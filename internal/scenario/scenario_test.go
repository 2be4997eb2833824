package scenario

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func base() Scenario {
	return Scenario{
		Name:    "t",
		N:       5,
		Horizon: 5,
		Link:    Link{Delay: 0.01, Jitter: 0.002},
		Seed:    1,
	}
}

func TestValidateDefaults(t *testing.T) {
	s := base()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Algorithm != "ssrmin" || s.K != 6 || s.Refresh != 0.05 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no name", func(s *Scenario) { s.Name = "" }},
		{"bad alg", func(s *Scenario) { s.Algorithm = "paxos" }},
		{"small n", func(s *Scenario) { s.N = 2 }},
		{"bad k", func(s *Scenario) { s.K = 4 }},
		{"no horizon", func(s *Scenario) { s.Horizon = 0 }},
		{"bad loss", func(s *Scenario) { s.Link.Loss = 2 }},
		{"fault count", func(s *Scenario) { s.Faults = []Fault{{At: 1, Type: "states"}} }},
		{"fault type", func(s *Scenario) { s.Faults = []Fault{{At: 1, Type: "meteor"}} }},
		{"fault link", func(s *Scenario) { s.Faults = []Fault{{At: 1, Type: "cut", Link: 9}} }},
		{"fault time", func(s *Scenario) { s.Faults = []Fault{{At: 99, Type: "loss-on"}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("validation accepted %+v", s)
			}
		})
	}
}

func TestLoadSingleAndArray(t *testing.T) {
	one := `{"name":"a","n":5,"horizon":3,"link":{"delay":0.01},"seed":1}`
	ss, err := Load(strings.NewReader(one))
	if err != nil || len(ss) != 1 || ss[0].Name != "a" {
		t.Fatalf("single load: %v %v", ss, err)
	}
	many := `[{"name":"a","n":5,"horizon":3,"link":{"delay":0.01},"seed":1},
	          {"name":"b","n":4,"horizon":2,"link":{"delay":0.02},"seed":2,"algorithm":"sstoken"}]`
	ss, err = Load(strings.NewReader(many))
	if err != nil || len(ss) != 2 || ss[1].Algorithm != "sstoken" {
		t.Fatalf("array load: %v %v", ss, err)
	}
	if _, err := Load(strings.NewReader("{nope")); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestLoadRejectsUnknownFields: a misspelled knob must be a load error,
// not an experiment silently run with the parameter at its default.
func TestLoadRejectsUnknownFields(t *testing.T) {
	misspelled := `{"name":"a","n":5,"horizn":3,"link":{"delay":0.01},"seed":1}`
	if _, err := Load(strings.NewReader(misspelled)); err == nil || !strings.Contains(err.Error(), "horizn") {
		t.Errorf("misspelled field not rejected: %v", err)
	}
	nested := `[{"name":"a","n":5,"horizon":3,"link":{"dellay":0.01},"seed":1}]`
	if _, err := Load(strings.NewReader(nested)); err == nil || !strings.Contains(err.Error(), "dellay") {
		t.Errorf("misspelled nested field in array not rejected: %v", err)
	}
}

func TestRunSSRminClean(t *testing.T) {
	s := base()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCensus < 1 || res.MaxCensus > 2 || res.Violations != 0 {
		t.Fatalf("clean run violated bounds: %+v", res)
	}
	if res.RuleExecutions == 0 || res.Net.Sent == 0 {
		t.Fatal("no progress recorded")
	}
	if res.LastBad != -1 {
		t.Fatalf("LastBad = %v on a clean run", res.LastBad)
	}
}

func TestRunSSTokenShowsGap(t *testing.T) {
	s := base()
	s.Algorithm = "sstoken"
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCensus != 0 {
		t.Fatalf("SSToken scenario should reach census 0: %+v", res)
	}
}

func TestRunWithFaultScript(t *testing.T) {
	s := base()
	s.Horizon = 60
	s.SettleBefore = 40
	s.Faults = []Fault{
		{At: 5, Type: "states", Count: 2},
		{At: 10, Type: "caches", Count: 2},
		{At: 15, Type: "cut", Link: 1},
		{At: 20, Type: "heal", Link: 1},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// After the settle window the system must be back in the 1–2 regime.
	if res.Violations != 0 || res.MinCensus < 1 || res.MaxCensus > 2 {
		t.Fatalf("did not re-stabilize after fault script: %+v", res)
	}
}

func TestRunDeterministic(t *testing.T) {
	s := base()
	s.Link.Loss = 0.1
	r1, err1 := s.Run()
	r2, err2 := s.Run()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.RuleExecutions != r2.RuleExecutions || r1.Net != r2.Net {
		t.Fatalf("same scenario diverged: %+v vs %+v", r1, r2)
	}
}

func TestWriteResult(t *testing.T) {
	s := base()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteResult(&b, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name"`, `"minCensus"`, `"ruleExecutions"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, b.String())
		}
	}
}

// TestShippedScenarioFiles loads and runs every scenario document shipped
// in the repository's scenarios/ directory.
func TestShippedScenarioFiles(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped scenarios found: %v", err)
	}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := Load(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, s := range ss {
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", f, s.Name, err)
			}
			if s.Algorithm != "sstoken" && (res.MinCensus < 1 || res.MaxCensus > 2) {
				t.Errorf("%s/%s: census [%d,%d] out of bounds", f, s.Name, res.MinCensus, res.MaxCensus)
			}
		}
	}
}

func TestSynchroTransform(t *testing.T) {
	s := base()
	s.Transform = "synchro"
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCensus < 1 || res.MaxCensus > 2 || res.Violations != 0 {
		t.Fatalf("ssrmin under synchro violated bounds: %+v", res)
	}

	s2 := base()
	s2.Transform = "synchro"
	s2.Algorithm = "sstoken"
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.MinCensus != 0 {
		t.Fatalf("sstoken under synchro should show the gap: %+v", res2)
	}
}

func TestSynchroTransformValidation(t *testing.T) {
	s := base()
	s.Transform = "synchro"
	s.Faults = []Fault{{At: 1, Type: "loss-on"}}
	if err := s.Validate(); err == nil {
		t.Error("faults under synchro accepted")
	}
	s = base()
	s.Transform = "warp"
	if err := s.Validate(); err == nil {
		t.Error("unknown transform accepted")
	}
}

// TestValidateRejectsHugeN: a ring size above MaxN is rejected before the
// churn plan allocates the ring, with and without a churn event, so a
// short file cannot make Validate allocate in proportion to n.
func TestValidateRejectsHugeN(t *testing.T) {
	for name, doc := range map[string]string{
		"static": `{"name":"huge","n":100000000,"horizon":1,"seed":1}`,
		"join":   `{"name":"huge","n":100000000,"horizon":1,"seed":1,"faults":[{"at":0.5,"type":"join","node":0}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ss, err := Load(strings.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			err = ss[0].Validate()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
				t.Errorf("Validate = %v, want the MaxN rejection", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("Load+Validate allocated %d bytes, want < 1 MiB", alloc)
			}
		})
	}
}
