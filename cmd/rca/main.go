// Command rca runs the root-cause-analysis pipeline end to end on the
// synthetic CESM-like corpus: inject a scenario's defects, confirm
// the consistency-test failure, select affected variables, build the
// metagraph, slice, and iteratively refine to the defect. All modes
// share one rca.Session, so the corpus, the ensemble fingerprint and
// the metagraph are generated once per invocation. Ctrl-C cancels the
// run cleanly between pipeline checkpoints.
//
// Usage:
//
//	rca -experiment GOFFGRATCH -aux 100 -ensemble 40 -runs 10
//	rca -all
//	rca -inject 'micro_mg_tend.ratio*=1.0001' -name RATIO
//	rca -inject 'aero_run.wsub:0.20=>2.00' -inject prng=mt -name WSUB+MT
//	rca -scenario twobugs.json
//	rca -table1 -aux 100 -topk 20
//	rca -search minflip -pool 'micro_mg_tend.tlat*=1.00015' -pool 'micro_mg_tend.pre*=1.0003'
//	rca -list
//
// With -server, rca becomes a thin client of an rcad daemon: the
// scenario description is shipped as JSON and the daemon's shared
// Session does the work (corpus sizing then lives server-side):
//
//	rca -server http://localhost:8080 -experiment GOFFGRATCH
//	rca -server http://localhost:8080 -all
//	rca -server http://localhost:8080 -search minflip -pool 'prng=mt' -pool 'fma=all'
//
// -search runs a branch-and-bound scenario search over the -pool
// candidates (objectives: minflip, maxdelta, rank) instead of a single
// investigation; -experiment/-inject/-scenario then name the base
// scenario the subsets are layered onto (default: clean).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/cliflags"
)

// injectFlags collects repeated -inject values.
type injectFlags []string

func (f *injectFlags) String() string     { return strings.Join(*f, "; ") }
func (f *injectFlags) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var injects, pool injectFlags
	var (
		search    = flag.String("search", "", "scenario search objective: minflip | maxdelta | rank (requires -pool)")
		threshold = flag.Float64("threshold", 0, "minflip verdict threshold (0 = engine default 0.5)")
		maxSubset = flag.Int("maxsubset", 0, "search subset size cap (0 = objective default)")
		name      = flag.String("experiment", "", "prewired experiment name (see -list)")
		scName    = flag.String("name", "CUSTOM", "scenario name for -inject runs")
		scFile    = flag.String("scenario", "", "JSON scenario definition file")
		camOnly   = flag.Bool("camonly", true, "restrict the slice to CAM modules (-inject runs)")
		selectK   = flag.Int("selectk", 5, "lasso target support (-inject runs)")
		list      = flag.Bool("list", false, "list experiments and exit")
		all       = flag.Bool("all", false, "run all six §6 experiments concurrently")
		table1    = flag.Bool("table1", false, "run the Table 1 selective-FMA study instead")
		topk      = flag.Int("topk", 50, "modules to disable per Table 1 strategy")
		dot       = flag.String("dot", "", "write the induced subgraph (Graphviz) to this file")
		server    = flag.String("server", "", "rcad base URL: run scenarios on a daemon instead of in-process (corpus/ensemble sizing then comes from the daemon's flags)")
		storeDir  = flag.String("store", "", "artifact store directory: persist corpora, compiled programs and metagraphs so later runs (and rcad daemons) start warm")
	)
	sf := cliflags.Bind(flag.CommandLine)
	flag.Var(&injects, "inject",
		"injection (repeatable): sub.var*=F | sub.var:OLD=>NEW | prng=mt | fma=all|m1,m2 | param:NAME=V")
	flag.Var(&pool, "pool",
		"search candidate injection (repeatable, same grammar as -inject); used with -search")
	flag.Parse()

	if _, err := sf.ArmFaults(); err != nil {
		fmt.Fprintln(os.Stderr, "rca:", err)
		os.Exit(2)
	}

	if *list {
		fmt.Println("experiments (§6):")
		for _, s := range rca.Experiments() {
			fmt.Printf("  %-12s %s\n", s.Name(), injectionIDs(s))
		}
		fmt.Println("supplement (§8.2, Figure 15):")
		for _, s := range rca.SupplementExperiments() {
			fmt.Printf("  %-12s %s\n", s.Name(), injectionIDs(s))
		}
		fmt.Println("\ncustom scenarios: -inject (repeatable) or -scenario FILE.json")
		return
	}

	// Ctrl-C cancels between pipeline checkpoints; the exit path
	// reports ErrCanceled instead of tearing the process down mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *server != "" {
		c := newClient(*server)
		var err error
		switch {
		case *table1:
			// Sizing lives server-side: forward only the parameters
			// the user set explicitly, so a bare `-table1` reuses the
			// daemon's cached ensemble instead of forcing the client
			// defaults onto it.
			set := map[string]bool{}
			flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
			var e, r, k int
			if set["ensemble"] {
				e = sf.Ensemble
			}
			if set["runs"] {
				r = sf.Runs
			}
			if set["topk"] {
				k = *topk
			}
			err = runRemoteTable1(ctx, c, e, r, k)
		case *search != "":
			var req *rca.SearchRequest
			if req, err = buildSearchRequest(*search, pool, *threshold, *maxSubset,
				*name, *scFile, injects, *scName, *camOnly, *selectK); err != nil {
				fmt.Fprintln(os.Stderr, "rca:", err)
				os.Exit(2)
			}
			err = runRemoteSearch(ctx, c, req)
		case *all:
			err = runRemoteAll(ctx, c, rca.Experiments())
		default:
			var sc rca.Scenario
			if sc, err = resolveScenario(*name, *scFile, injects, *scName, *camOnly, *selectK); err != nil {
				fmt.Fprintln(os.Stderr, "rca:", err)
				os.Exit(2)
			}
			err = runRemote(ctx, c, sc)
		}
		if err != nil {
			fail(err)
		}
		return
	}

	// Validate the sampler up front: a typo should fail
	// here, not ten minutes into an ensemble run.
	opts, err := sf.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rca:", err)
		os.Exit(2)
	}
	if *storeDir != "" {
		store, err := rca.OpenArtifactStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rca:", err)
			os.Exit(2)
		}
		opts = append(opts, rca.WithArtifacts(store))
	}
	session := rca.NewSession(sf.Corpus(), opts...)

	switch {
	case *table1:
		rows, err := session.Table1(ctx, rca.Table1Setup{
			EnsembleSize: sf.Ensemble,
			ExpSize:      sf.Runs,
			TopK:         *topk,
		})
		if err != nil {
			fail(err)
		}
		fmt.Print(rca.FormatTable1(rows))

	case *search != "":
		req, err := buildSearchRequest(*search, pool, *threshold, *maxSubset,
			*name, *scFile, injects, *scName, *camOnly, *selectK)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rca:", err)
			os.Exit(2)
		}
		sopts := req.Options()
		if sf.Parallel > 0 {
			sopts.Parallelism = sf.Parallel
		}
		res, err := rca.Search(ctx, session, sopts)
		if err != nil {
			fail(err)
		}
		fmt.Print(rca.FormatSearchResult(res))

	case *all:
		outs, err := session.RunAll(ctx, rca.Experiments())
		if err != nil {
			fail(err)
		}
		located := 0
		for _, out := range outs {
			fmt.Println("================================================================")
			fmt.Print(rca.FormatOutcome(out))
			if out.BugLocated {
				located++
			}
		}
		fmt.Println("================================================================")
		fmt.Printf("located %d/%d injected defects\n", located, len(outs))

	default:
		sc, err := resolveScenario(*name, *scFile, injects, *scName, *camOnly, *selectK)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rca:", err)
			os.Exit(2)
		}
		out, err := session.Run(ctx, sc)
		if err != nil {
			fail(err)
		}
		fmt.Print(rca.FormatOutcome(out))
		if *dot != "" {
			f, err := os.Create(*dot)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			if err := out.WriteSliceDot(f); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *dot)
		}
	}
}

// resolveScenario picks the investigation: -scenario JSON wins, then
// -inject composition, then a prewired experiment name (defaulting to
// GOFFGRATCH when nothing is given).
func resolveScenario(name, file string, injects []string, scName string,
	camOnly bool, selectK int) (rca.Scenario, error) {
	if file != "" {
		if name != "" || len(injects) > 0 {
			return nil, fmt.Errorf("-scenario excludes -experiment and -inject")
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return rca.ScenarioFromJSON(data)
	}
	if len(injects) > 0 {
		if name != "" {
			return nil, fmt.Errorf("-inject excludes -experiment (use one or the other)")
		}
		injs := make([]rca.Injection, 0, len(injects))
		for _, s := range injects {
			inj, err := rca.ParseInjection(s)
			if err != nil {
				return nil, err
			}
			injs = append(injs, inj)
		}
		return rca.NewScenario(scName,
			rca.ScenarioOptions{CAMOnly: camOnly, SelectK: selectK}, injs...), nil
	}
	if name == "" {
		name = "GOFFGRATCH"
	}
	for _, s := range rca.AllExperiments() {
		if strings.EqualFold(s.Name(), name) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (try -list, or -inject for a custom scenario)", name)
}

// buildSearchRequest assembles the -search request: the objective, the
// -pool candidates, and (only when the user named one) a base scenario
// — a bare -search runs over the clean model.
func buildSearchRequest(objective string, pool []string, threshold float64, maxSubset int,
	name, file string, injects []string, scName string, camOnly bool, selectK int) (*rca.SearchRequest, error) {
	obj, err := rca.ParseSearchObjective(objective)
	if err != nil {
		return nil, err
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("-search requires at least one -pool injection")
	}
	req := &rca.SearchRequest{Objective: obj, Threshold: threshold, MaxSubset: maxSubset}
	for _, s := range pool {
		inj, err := rca.ParseInjection(s)
		if err != nil {
			return nil, fmt.Errorf("-pool %q: %w", s, err)
		}
		req.Pool = append(req.Pool, inj)
	}
	if name != "" || file != "" || len(injects) > 0 {
		base, err := resolveScenario(name, file, injects, scName, camOnly, selectK)
		if err != nil {
			return nil, err
		}
		req.Base = base
	}
	return req, nil
}

// injectionIDs renders a scenario's injection fingerprints for -list.
func injectionIDs(s rca.Scenario) string {
	var ids []string
	for _, inj := range s.Injections() {
		ids = append(ids, inj.ID())
	}
	if len(ids) == 0 {
		return "(no injections)"
	}
	return strings.Join(ids, " + ")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rca:", err)
	os.Exit(1)
}
