package main

import "testing"

// TestCheckRatio pins the same-run ratio gate: it passes only when NUM
// ran strictly faster than DEN, and refuses a malformed spec or a
// benchmark missing from the input instead of passing vacuously.
func TestCheckRatio(t *testing.T) {
	acc := map[string]*Result{
		"BenchmarkFast":  {NsOp: 60},
		"BenchmarkSlow":  {NsOp: 100},
		"BenchmarkSlow2": {NsOp: 100},
	}
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"BenchmarkFast/BenchmarkSlow", true},
		{"BenchmarkSlow/BenchmarkSlow2", false}, // equal ns/op fails
		{"BenchmarkSlow/BenchmarkFast", false},
		{"BenchmarkFast/BenchmarkMissing", false},
		{"BenchmarkFast", false},
		{"/BenchmarkSlow", false},
	} {
		err := checkRatio(acc, tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("checkRatio(%q) = %v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
}
