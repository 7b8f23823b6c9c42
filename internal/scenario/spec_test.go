package scenario

import (
	"reflect"
	"strings"
	"testing"
)

func browseMix() map[string]float64 { return map[string]float64{"browse": 1} }

func twoMix() map[string]float64 { return map[string]float64{"browse": 0.75, "buy": 0.25} }

func validSpec() *Spec {
	return New("roundtrip").
		AddClosed("shoppers", 400, Lognormal(7, 1.5), twoMix()).Goal(2).
		AddPoisson("api", 40, browseMix()).Pattern(Diurnal(3600, 0.5, 0)).
		AddMMPP("burst", []MMPPStateSpec{{Rate: 2, MeanDwell: 30}, {Rate: 40, MeanDwell: 5}}, browseMix()).
		Spec()
}

func TestSpecRoundTrip(t *testing.T) {
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	out, err := s.JSON()
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the spec:\nbefore: %+v\nafter:  %+v", s, back)
	}
	// Emitting the re-parsed spec must be byte-stable.
	out2, err := back.JSON()
	if err != nil {
		t.Fatalf("re-emit: %v", err)
	}
	if string(out) != string(out2) {
		t.Fatalf("re-emit not byte-identical:\n%s\nvs\n%s", out, out2)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","cohorts":[],"surprise":1}`))
	if err == nil || !strings.Contains(err.Error(), "surprise") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","cohorts":[]} {"again":true}`))
	if err == nil {
		t.Fatal("trailing data not rejected")
	}
}

// validateErrorCases each break validSpec in one way that Validate
// must reject with an error mentioning want.
var validateErrorCases = []struct {
	name string
	mut  func(*Spec)
	want string
}{
	{"no name", func(s *Spec) { s.Name = "" }, "needs a name"},
	{"no cohorts", func(s *Spec) { s.Cohorts = nil }, "at least one cohort"},
	{"dup cohort", func(s *Spec) { s.Cohorts[1].Name = "shoppers" }, "duplicate cohort"},
	{"bad mix sum", func(s *Spec) { s.Cohorts[0].Mix = map[string]float64{"browse": 0.5} }, "sum to"},
	{"negative mix", func(s *Spec) { s.Cohorts[0].Mix = map[string]float64{"browse": 1.4, "buy": -0.4} }, "negative mix fraction"},
	{"closed no clients", func(s *Spec) { s.Cohorts[0].Arrival.Clients = 0 }, "positive clients"},
	{"closed no think", func(s *Spec) { s.Cohorts[0].Think = nil }, "think distribution"},
	{"closed with pattern", func(s *Spec) { s.Cohorts[0].Arrival.Pattern = &PatternSpec{Kind: PatternDiurnal, Period: 60} }, "cannot carry a temporal pattern"},
	{"open with think", func(s *Spec) { th := Exponential(7); s.Cohorts[1].Think = &th }, "must not declare a think"},
	{"poisson no rate", func(s *Spec) { s.Cohorts[1].Arrival.Rate = 0 }, "positive rate"},
	{"mmpp one state", func(s *Spec) { s.Cohorts[2].Arrival.States = s.Cohorts[2].Arrival.States[:1] }, "at least 2"},
	{"mmpp all silent", func(s *Spec) {
		s.Cohorts[2].Arrival.States = []MMPPStateSpec{{Rate: 0, MeanDwell: 1}, {Rate: 0, MeanDwell: 2}}
	}, "positive rate"},
	{"mmpp bad dwell", func(s *Spec) { s.Cohorts[2].Arrival.States[0].MeanDwell = 0 }, "positive mean_dwell"},
	{"unknown process", func(s *Spec) { s.Cohorts[1].Arrival.Process = "fractal" }, "unknown arrival process"},
	{"unknown dist", func(s *Spec) { s.Cohorts[0].Think.Dist = "cauchy" }, "unknown distribution"},
	{"lognormal no cv", func(s *Spec) { s.Cohorts[0].Think.CV = 0 }, "positive cv"},
	{"exponential with cv", func(s *Spec) { *s.Cohorts[0].Think = DistSpec{Dist: DistExponential, Mean: 7, CV: 2} }, "must not set cv"},
	{"diurnal amplitude", func(s *Spec) { s.Cohorts[1].Arrival.Pattern.Amplitude = 1.5 }, "outside [0,1]"},
	{"unknown pattern", func(s *Spec) { s.Cohorts[1].Arrival.Pattern.Kind = "sawtooth" }, "unknown pattern kind"},
	{"flash peak", func(s *Spec) {
		*s.Cohorts[1].Arrival.Pattern = PatternSpec{Kind: PatternFlash, Ramp: 10, Peak: 0.5}
	}, "peak ≥ 1"},
	{"flash empty", func(s *Spec) {
		*s.Cohorts[1].Arrival.Pattern = PatternSpec{Kind: PatternFlash, Peak: 3}
	}, "positive ramp+hold+decay"},
	{"piecewise empty", func(s *Spec) {
		*s.Cohorts[1].Arrival.Pattern = PatternSpec{Kind: PatternPiecewise}
	}, "at least one period"},
	{"piecewise zero cycle", func(s *Spec) {
		*s.Cohorts[1].Arrival.Pattern = PatternSpec{Kind: PatternPiecewise, Cycle: true, Periods: []PeriodSpec{{Duration: 10, Scale: 0}}}
	}, "positive scale"},
	{"goal percentile", func(s *Spec) { s.Cohorts[0].GoalPercentile = 1.5 }, "outside [0,1)"},
}

func TestValidateErrorPaths(t *testing.T) {
	for _, tc := range validateErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("mutation %q passed validation", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutation %q: error %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}
}

func TestCompileTraceCohortRules(t *testing.T) {
	s := New("t").AddTrace("replay", "does-not-exist.csv", false).Spec()
	if err := s.Validate(); err != nil {
		t.Fatalf("trace spec rejected structurally: %v", err)
	}
	if _, err := s.Compile(t.TempDir()); err == nil {
		t.Fatal("missing trace file not rejected at compile")
	}
	// A trace cohort declaring its own mix is contradictory.
	s.Cohorts[0].Mix = browseMix()
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "must not declare a mix") {
		t.Fatalf("trace cohort with mix: %v", err)
	}
	// cycle_seconds without loop is meaningless.
	s2 := New("t2").AddTrace("replay", "x.csv", false).Spec()
	s2.Cohorts[0].Arrival.CycleSeconds = 10
	if err := s2.Validate(); err == nil || !strings.Contains(err.Error(), "without loop") {
		t.Fatalf("cycle_seconds without loop: %v", err)
	}
}

func TestCompileDerivedQuantities(t *testing.T) {
	c, err := validSpec().Compile("")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(c.Cohorts) != 3 {
		t.Fatalf("got %d cohorts, want 3", len(c.Cohorts))
	}
	closed, pois, mmpp := c.Cohorts[0], c.Cohorts[1], c.Cohorts[2]
	if closed.Open() || closed.Clients != 400 {
		t.Fatalf("closed cohort compiled wrong: %+v", closed)
	}
	if got := closed.Class.ThinkTimeMean; got < 6.999 || got > 7.001 {
		t.Fatalf("closed think mean %v, want 7", got)
	}
	if !pois.Open() || pois.MeanRate != 40 {
		t.Fatalf("poisson cohort: mean rate %v, want 40", pois.MeanRate)
	}
	if pois.MaxRate < 59.9 || pois.MaxRate > 60.1 {
		t.Fatalf("poisson max rate %v, want 60 (diurnal peak 1.5×40)", pois.MaxRate)
	}
	// MMPP stationary rate: (2·30 + 40·5)/(30+5) = 260/35.
	want := 260.0 / 35.0
	if got := mmpp.MeanRate; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("mmpp mean rate %v, want %v", got, want)
	}
	if mmpp.MaxRate != 40 {
		t.Fatalf("mmpp max rate %v, want 40", mmpp.MaxRate)
	}

	w := c.Workload()
	if len(w) != 3 || w[0].Clients != 400 || w[1].ArrivalRate != 40 {
		t.Fatalf("workload mapping wrong: %+v", w)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("mapped workload invalid: %v", err)
	}
	if got := len(c.RequestTypes()); got != 2 {
		t.Fatalf("request types %v, want browse+buy", c.RequestTypes())
	}
}
