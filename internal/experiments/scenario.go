// The Scenario model: an experiment is an ordered set of composable
// Injections — source patches over named corpus subprograms, a PRNG
// swap, per-module FMA toggles, ensemble-parameter perturbations —
// plus slicing options. Every injection carries a stable fingerprint
// ID(); the concatenated fingerprint is the Session cache key, so
// user-defined and multi-defect scenarios get the same compile-once
// caching as the paper's catalog.
package experiments

import (
	"fmt"
	"strings"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/model"
)

// ScenarioOptions control how the investigation slices, independent of
// what the scenario injects.
type ScenarioOptions struct {
	// CAMOnly restricts the slice to atmosphere-component modules
	// (the paper's default; Figure 15 lifts it).
	CAMOnly bool
	// SelectK is the lasso target support (paper: ~5; 0 defaults to 5).
	SelectK int
}

// Scenario is one root-cause investigation: a name, an ordered set of
// injections defining the experimental configuration, and slicing
// options. Implementations beyond NewScenario are welcome — the
// Session only reads these three accessors.
type Scenario interface {
	// Name labels reports; it does not participate in cache keys.
	Name() string
	// Injections returns the composed defects/configuration changes,
	// applied in order.
	Injections() []Injection
	// Options returns the slicing options.
	Options() ScenarioOptions
}

// scenarioDef is the value NewScenario builds.
type scenarioDef struct {
	name string
	opts ScenarioOptions
	injs []Injection
}

func (s *scenarioDef) Name() string            { return s.name }
func (s *scenarioDef) Injections() []Injection { return append([]Injection(nil), s.injs...) }
func (s *scenarioDef) Options() ScenarioOptions {
	return s.opts
}

// NewScenario composes injections into a runnable scenario.
func NewScenario(name string, opts ScenarioOptions, injs ...Injection) Scenario {
	return &scenarioDef{name: name, opts: opts, injs: append([]Injection(nil), injs...)}
}

// plan is a scenario lowered onto the build layers: corpus generation
// parameters, source patches, and the experimental run configuration.
// It also carries the layered fingerprints the Session caches key on.
type plan struct {
	scenario Scenario
	cfg      corpus.Config  // generation parameters (perturbed)
	patches  []corpus.Patch // source patches, in injection order
	expRun   model.RunConfig

	sourceIDs []string // injections that alter the generated source
	runIDs    []string // injections that alter the run configuration
	siteIDs   []string // defect-site overrides (resolution only, not builds)

	// conflict bookkeeping
	prngSet      bool
	fmaSet       bool
	params       map[string]bool
	patchTargets map[string]bool
}

// buildPlan lowers a scenario over the session's base corpus
// configuration, validating injection compatibility.
func buildPlan(base corpus.Config, sc Scenario) (*plan, error) {
	p := &plan{
		scenario:     sc,
		cfg:          base,
		params:       make(map[string]bool),
		patchTargets: make(map[string]bool),
	}
	for _, inj := range sc.Injections() {
		if inj == nil {
			continue
		}
		if err := inj.apply(p); err != nil {
			return nil, fmt.Errorf("scenario %s: injection %s: %w", sc.Name(), inj.ID(), err)
		}
	}
	return p, nil
}

// joinIDs concatenates injection fingerprints unambiguously: each ID
// is length-prefixed, so no crafted ID (injection fields are
// user-controlled strings) can collide with the join of two others.
func joinIDs(ids []string) string {
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d:%s+", len(id), id)
	}
	return b.String()
}

// sourceKey fingerprints everything that determines the experimental
// source tree: the generation parameters and the source-level
// injections. Runners are cached per sourceKey, so scenarios sharing a
// source tree (e.g. a PRNG swap and an FMA toggle) share the clean
// build with the control.
func (p *plan) sourceKey() string {
	return fmt.Sprintf("%+v|%s", p.cfg, joinIDs(p.sourceIDs))
}

// buildKey fingerprints the compiled-metagraph state: the source tree
// plus the configuration changes that alter the coverage trace (PRNG,
// FMA). Compiled metagraphs are cached per buildKey.
func (p *plan) buildKey() string {
	return p.sourceKey() + "|" + joinIDs(p.runIDs)
}

// selectKey fingerprints the §3 variable selection: the build (it
// fixes the verdict's experimental runs and the first-step comparison)
// plus the lasso target k. Slicing options and defect sites play no
// part, so AVX2 and AVX2-FULL share one selection.
func (p *plan) selectKey() string {
	return fmt.Sprintf("%s|k=%d", p.buildKey(), p.scenario.Options().SelectK)
}

// scenarioKey fingerprints a full investigation: the build, the
// defect-site overrides (they steer slicing's success check but not
// the build, so they live in this layer only), and the slicing
// options. Slices and refinements are cached per scenarioKey; the
// scenario's display name deliberately does not participate, so
// renamed but identical scenarios share all cached stages.
func (p *plan) scenarioKey() string {
	o := p.scenario.Options()
	return fmt.Sprintf("%s|%s|cam=%v;k=%d", p.buildKey(), joinIDs(p.siteIDs), o.CAMOnly, o.SelectK)
}

// ScenarioFingerprint returns a scenario's stable cache identity.
// Exposed for tests, diagnostics and external caching layers.
func ScenarioFingerprint(base corpus.Config, sc Scenario) (string, error) {
	p, err := buildPlan(base, sc)
	if err != nil {
		return "", err
	}
	return p.scenarioKey(), nil
}
