package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes to Parse. Parse must never panic and
// must return exactly one of a spec or an error; Validate must accept
// or reject whatever Parse lets through without panicking; and a spec
// Validate accepts must re-emit as JSON that parses and validates
// again.
//
// The corpus is seeded with the specs the other scenario tests use —
// the round-trip spec, each of its Validate error mutations, a trace
// cohort, the malformed Parse inputs — and the example spec files.
// Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 30s ./internal/scenario
func FuzzParse(f *testing.F) {
	add := func(s *Spec) {
		out, err := s.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(out)
	}
	add(validSpec())
	for _, tc := range validateErrorCases {
		s := validSpec()
		tc.mut(s)
		add(s)
	}
	add(New("t").AddTrace("replay", "does-not-exist.csv", false).Spec())
	f.Add([]byte(`{"name":"x","cohorts":[],"surprise":1}`))
	f.Add([]byte(`{"name":"x","cohorts":[]} {"again":true}`))
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if (s == nil) == (err == nil) {
			t.Fatalf("Parse returned spec %v with error %v", s, err)
		}
		if err != nil || s.Validate() != nil {
			return
		}
		out, err := s.JSON()
		if err != nil {
			t.Fatalf("valid spec does not re-emit: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-emitted spec does not parse: %v\n%s", err, out)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("re-emitted spec no longer validates: %v\n%s", err, out)
		}
	})
}
