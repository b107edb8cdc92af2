package cliflags

import (
	"flag"
	"testing"
)

func TestParseSamplerNames(t *testing.T) {
	for _, name := range []string{"value", "reach", "graded"} {
		sm, err := parseSampler(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sm.Kind() != name {
			t.Errorf("-sampler %s selected %s", name, sm.Kind())
		}
	}
}

func TestOptionsValidatesNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-sampler", "graded", "-engine", "tree"}, true},
		{[]string{"-sampler", "reach", "-engine", "bytecode"}, true},
		{[]string{"-sampler", "bogus"}, false},
		{[]string{"-sampler", ""}, false},
		{[]string{"-engine", "jit"}, false},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := Bind(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		opts, err := s.Options()
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok=%v", tc.args, err, tc.ok)
		}
		if err == nil && len(opts) == 0 {
			t.Errorf("%q: no options", tc.args)
		}
	}
}

func TestCorpusAndFaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Bind(fs)
	if err := fs.Parse([]string{"-aux", "12", "-seed", "7", "-faults", "artifact.put:explode"}); err != nil {
		t.Fatal(err)
	}
	if cfg := s.Corpus(); cfg.AuxModules != 12 || cfg.Seed != 7 {
		t.Errorf("corpus = %+v", cfg)
	}
	if armed, err := s.ArmFaults(); err == nil || armed {
		t.Errorf("bad -faults spec: armed=%v err=%v", armed, err)
	}
	s.Faults = ""
	if armed, err := s.ArmFaults(); err != nil || armed {
		t.Errorf("empty -faults: armed=%v err=%v", armed, err)
	}
}
