package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// checker compares every output the benchmark observes with its
// reference and counts operations attempted and failed. An output is
// keyed by what produced it (a corpus and scenario, a search pool and
// objective, a service request); it must
//
//   - satisfy its own validity test (a located bug, a search answer that
//     meets its objective), and
//   - equal every other output under the same key in the run (repeated
//     passes, Run against RunAll, duplicate jobs), and
//   - equal the recorded reference for the key, when the seed has one
//     (testdata/ref holds the default and a held-out seed), and
//   - have a recorded reference at all, when the seed has one and the
//     output comes from the run's first pass (see checkFirst).
//
// Outputs are compared by the first 64 bits of their SHA-256, which
// keeps the reference files small.
type checker struct {
	mu        sync.Mutex
	ref       map[string]string // key -> recorded hash; nil when the seed has none
	seen      map[string]string // key -> hash first observed in this run
	attempted int
	failed    int
	refHits   int // outputs that matched their recorded reference
	problems  []string
}

func newChecker(ref map[string]string) *checker {
	return &checker{ref: ref, seen: map[string]string{}}
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// check records one operation with output out under key; valid is the
// output's own validity test. It reports whether the output passed.
func (c *checker) check(key, out string, valid bool) bool {
	return c.record(key, out, valid, false)
}

// checkFirst is check for an output of the run's first pass, which
// every run makes and every recording therefore holds. When the seed
// has a reference, a first-pass key missing from it fails: the inputs
// or their keys changed, and the reference no longer checks anything.
func (c *checker) checkFirst(key, out string, valid bool) bool {
	return c.record(key, out, valid, true)
}

func (c *checker) record(key, out string, valid, first bool) bool {
	h := digest(out)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	var why string
	if prev, ok := c.seen[key]; ok && prev != h {
		why = "differs from an earlier output under the same key"
	} else if !ok {
		c.seen[key] = h
	}
	if want, ok := c.ref[key]; ok && want != h {
		why = "differs from the recorded reference"
	} else if ok {
		c.refHits++
	} else if first && c.ref != nil {
		why = "has no recorded reference, though the seed has one"
	}
	if !valid {
		why = "fails its validity test"
	}
	if why == "" {
		return true
	}
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf("%s: %s\n%s", key, why, out))
	return false
}

// fail records one operation that errored.
func (c *checker) fail(key string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf("%s: %v", key, err))
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// hits is the number of outputs that matched their recorded reference.
func (c *checker) hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refHits
}

// failedFrac is failed operations over operations attempted.
func (c *checker) failedFrac() float64 {
	a, f := c.counts()
	if a == 0 {
		return 1
	}
	return float64(f) / float64(a)
}

// refPath names the reference file of one workload and seed. The
// paperscale seed only orders three fixed scenarios, so its outputs do
// not depend on the seed and one reference serves every seed.
func refPath(dir, workload string, seed uint64) string {
	if workload == "paperscale" {
		return filepath.Join(dir, workload+".json")
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, seed))
}

// loadRef reads a reference file; a seed without one yields nil.
func loadRef(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref map[string]string
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return ref, nil
}

// saveRef writes the outputs observed in this run as the reference,
// merged over any existing one (so a longer recording run extends it).
func (c *checker) saveRef(path string) error {
	c.mu.Lock()
	merged := map[string]string{}
	for k, v := range c.ref {
		merged[k] = v
	}
	for k, v := range c.seen {
		merged[k] = v
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
