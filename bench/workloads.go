package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/scenario/family"
	"wsndse/internal/service"
)

// setups is how many times a run sets its workload up from scratch; the
// reported setup_s is their median.
const setups = 5

// workload is one traffic mix. Server workloads drive a fresh wsn-serve
// through service.Client in closed loops: each client submits, waits for
// the job over SSE, fetches the front, and only then submits again.
// paper-validate instead runs wsn-experiments passes back to back; its
// specs are the explorations its scenario sweep performs, which the
// traced run serves up the same ladder as the other workloads.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop client goroutines.
	clients int
	// warmup counts the jobs run before timing starts on the measured
	// server, its set-up job included. (paper-validate's set-up passes are
	// its warm-up.)
	warmup int
	// digestJobs is how many jobs, from index 0, the seed-1 digest covers;
	// a timed window runs at least long enough to reach it.
	digestJobs int
	// rssJobs is the timed job after which a server's peak memory is read;
	// a timed window runs at least that many jobs.
	rssJobs int
	// slots > 0 means job i's front depends only on its spec, which repeats
	// every slots jobs: every repeat must return the identical front.
	slots int
	// traceWarmup and traceJobs size the traced run: every rung replays the
	// same job sequence, timing jobs traceWarmup..traceWarmup+traceJobs-1.
	traceWarmup, traceJobs int
	// family starts the server with every scenario family enabled and with
	// durable result, checkpoint and telemetry directories.
	family bool
	// passes marks paper-validate: the timed unit is a wsn-experiments pass.
	passes bool
	// specs returns job i's spec for a seed.
	specs func(seed int64) func(i int) service.Spec
}

// experimentsArgs is the paper-reproduction pass; speed is left out
// because it times itself.
var experimentsArgs = []string{"-run", "fig3,fig4,delay,fig5,ablation,scenarios", "-workers", "2"}

// experimentChecks is how many "[… checks passed]" lines a pass prints.
const experimentChecks = 7

var workloads = []*workload{
	{
		name:    "ward-explore",
		why:     "NSGA-II pop 256 x 120 gens on ecg-ward: ~90% of each job is the search (archive, sort, memo/batch, model), so model, memo or archive changes show here first",
		clients: 1, warmup: 2, digestJobs: 8, rssJobs: 16, slots: 8, traceWarmup: 1, traceJobs: 12,
		specs: func(seed int64) func(int) service.Spec {
			return func(i int) service.Spec {
				return service.Spec{
					Scenario: "ecg-ward", Algorithm: service.AlgoNSGA2, Seed: seed + int64(i%8), Workers: 2,
					NSGA2: &dse.NSGA2Config{PopulationSize: 256, Generations: 120},
				}
			}
		},
	},
	{
		name:    "ward-burst",
		why:     "two clients of tiny pop-8 x 4-gen jobs (~36 evals each): HTTP/SSE, queueing, compile, supervision and store dominate, so a memo or model change must show no change here",
		clients: 2, warmup: 200, digestJobs: 64, rssJobs: 4000, slots: 64, traceWarmup: 200, traceJobs: 3000,
		specs: func(seed int64) func(int) service.Spec {
			return func(i int) service.Spec {
				return service.Spec{
					Scenario: "ecg-ward", Algorithm: service.AlgoNSGA2, Seed: seed + int64(i%64), Workers: 1,
					NSGA2: &dse.NSGA2Config{PopulationSize: 8, Generations: 4},
				}
			}
		},
	},
	{
		name:    "family-mosa",
		why:     "warm-started, checkpointed MOSA over the 208 chipset-sweep/mobile-relay members: single evals, 2.5e4-1.5e11-point spaces and durable writes catch gains tuned only for NSGA-II on ecg-ward",
		clients: 1, warmup: 10, digestJobs: 64, rssJobs: 208, traceWarmup: 10, traceJobs: 100, family: true,
		specs: func(seed int64) func(int) service.Spec {
			members := familyCycle(seed)
			return func(i int) service.Spec {
				return service.Spec{
					Scenario: members[i%len(members)], Algorithm: service.AlgoMOSA, Seed: seed, Workers: 2,
					MOSA: &dse.MOSAConfig{Iterations: 20000}, WarmStart: service.WarmStartAuto, CheckpointEvery: 4,
				}
			}
		},
	},
	{
		name:    "paper-validate",
		why:     "wsn-experiments fig3,fig4,delay,fig5,ablation,scenarios passes: the paper-reproduction path (sim, experiments, casestudy) with no service involved",
		clients: 1, digestJobs: 1, slots: 5, traceWarmup: 5, traceJobs: 40, passes: true,
		specs: func(int64) func(int) service.Spec {
			names := builtinScenarios()
			return func(i int) service.Spec {
				// The scenario sweep's exploration of each builtin scenario.
				return service.Spec{
					Scenario: names[i%len(names)], Algorithm: service.AlgoNSGA2, Seed: 11, Workers: 2,
					NSGA2: &dse.NSGA2Config{PopulationSize: 32, Generations: 12},
				}
			}
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// familyCycle is the seed-permuted cycle of every chipset-sweep and
// mobile-relay member name.
func familyCycle(seed int64) []string {
	var names []string
	for _, fam := range []string{"chipset-sweep", "mobile-relay"} {
		f, ok := family.Lookup(fam)
		if !ok {
			panic("bench: family " + fam + " is not registered")
		}
		for _, v := range f.Members() {
			names = append(names, f.MemberName(v))
		}
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// builtinScenarios lists the registered scenarios that belong to no
// family: the set wsn-experiments sweeps.
func builtinScenarios() []string {
	var out []string
	for _, n := range scenario.Names() {
		if _, ok := family.FamilyOf(n); !ok {
			out = append(out, n)
		}
	}
	return out
}
