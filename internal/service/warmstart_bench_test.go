package service

import (
	"context"
	"fmt"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// warmStartTrial is one chipset-sweep member set up to measure what
// transfer seeding buys: generations until the front reaches 95% of a
// converged reference hypervolume, cold versus seeded from its sibling's
// archived front.
type warmStartTrial struct {
	name   string
	space  *dse.Space
	eval   dse.Evaluator
	ref    dse.Objectives // hypervolume reference point
	target float64        // 95% of the converged front's hypervolume
	seeds  []dse.Config   // resolved from the sibling's front
}

const (
	warmStartPop     = 24
	warmStartMaxGens = 60
)

// warmStartTrials sets up two chipset-sweep members, telosb seeded from
// micaz's front and vice versa. The seeds come through the real
// ResolveWarmStart path, so they reflect the service's near-miss lookup,
// not an idealized seed list.
func warmStartTrials(tb testing.TB) []warmStartTrial {
	tb.Helper()
	members := []string{
		registerSweepMember(tb, "telosb"),
		registerSweepMember(tb, "micaz"),
	}
	const refSeed = 7

	type compiledMember struct {
		sc    scenario.Scenario
		space *dse.Space
		eval  dse.Evaluator
		ref   dse.Objectives // hypervolume reference point
		front []dse.Point    // converged reference front
	}
	compile := func(name string) *compiledMember {
		sc, ok := scenario.Lookup(name)
		if !ok {
			tb.Fatalf("member %s not registered", name)
		}
		problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
		if err != nil {
			tb.Fatal(err)
		}
		compiled, err := problem.Compile()
		if err != nil {
			tb.Fatal(err)
		}
		m := &compiledMember{sc: sc, space: problem.Space(), eval: compiled.Evaluator()}
		res, err := dse.NSGA2(m.space, m.eval, dse.NSGA2Config{
			PopulationSize: warmStartPop, Generations: warmStartMaxGens, Seed: refSeed, Workers: 1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		m.front = res.Front
		m.ref = make(dse.Objectives, len(res.Front[0].Objs))
		for i := range m.ref {
			worst := res.Front[0].Objs[i]
			for _, p := range res.Front {
				if p.Objs[i] > worst {
					worst = p.Objs[i]
				}
			}
			m.ref[i] = worst * 1.1
		}
		return m
	}
	compiledMembers := make(map[string]*compiledMember, len(members))
	for _, name := range members {
		compiledMembers[name] = compile(name)
	}

	trials := make([]warmStartTrial, len(members))
	for i, name := range members {
		m := compiledMembers[name]
		donor := compiledMembers[members[(i+1)%len(members)]]

		// The donor's front, archived under the donor's own fingerprint,
		// reaches the target member only through the family near-miss path.
		store, err := NewStore(StoreConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		stored := StoredResult{
			Scenario:    donor.sc.Name,
			Algorithm:   AlgoNSGA2,
			Fingerprint: donor.sc.Fingerprint(),
			Objectives:  ObjectivesFull,
		}
		for _, p := range donor.front {
			stored.Front = append(stored.Front, FrontPoint{Config: p.Config, Objs: p.Objs})
		}
		if _, err := store.Put(stored); err != nil {
			tb.Fatal(err)
		}
		seeds, info, err := ResolveWarmStart(store, WarmStartAuto,
			m.sc.Fingerprint(), ObjectivesFull, AlgoNSGA2, m.sc.Name, m.space)
		if err != nil {
			tb.Fatal(err)
		}
		if info == nil || info.Exact || len(seeds) == 0 {
			tb.Fatalf("near-miss resolution for %s: %+v (%d seeds)", name, info, len(seeds))
		}
		trials[i] = warmStartTrial{
			name:   name,
			space:  m.space,
			eval:   m.eval,
			ref:    m.ref,
			target: 0.95 * dse.Hypervolume(m.front, m.ref),
			seeds:  seeds,
		}
	}
	return trials
}

// gensToTarget runs a fresh search from seeds (nil: cold) and reports the
// generation at which the front's hypervolume first reaches the target
// (warmStartMaxGens if never).
func (tr warmStartTrial) gensToTarget(tb testing.TB, seeds []dse.Config) int {
	const runSeed = 21
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gens := warmStartMaxGens
	opts := dse.Options{
		Context:    ctx,
		SeedPoints: seeds,
		Progress: func(p dse.Progress) {
			if p.Step < gens && dse.Hypervolume(p.Front, tr.ref) >= tr.target {
				gens = p.Step
				cancel()
			}
		},
	}
	_, err := dse.NSGA2Opts(tr.space, tr.eval, dse.NSGA2Config{
		PopulationSize: warmStartPop, Generations: warmStartMaxGens, Seed: runSeed, Workers: 1,
	}, opts)
	if err != nil && ctx.Err() == nil {
		tb.Fatal(err)
	}
	return gens
}

// TestWarmStartSeedingPayoff pins what BenchmarkWarmStartSeeding
// measures: on both members, the seeded search reaches the target
// hypervolume in fewer generations than the cold one.
func TestWarmStartSeedingPayoff(t *testing.T) {
	for _, tr := range warmStartTrials(t) {
		cold, seeded := tr.gensToTarget(t, nil), tr.gensToTarget(t, tr.seeds)
		t.Logf("%s: %d generations seeded, %d cold", tr.name, seeded, cold)
		if seeded >= cold {
			t.Errorf("%s: seeded search took %d generations to the target, cold %d", tr.name, seeded, cold)
		}
	}
}

// BenchmarkWarmStartSeeding reports each trial's generations to the
// target, cold and seeded. Lower gens_to_target is better; the
// wall-clock per op is dominated by the search itself and carries no
// signal.
func BenchmarkWarmStartSeeding(b *testing.B) {
	for i, tr := range warmStartTrials(b) {
		short := fmt.Sprintf("member%d", i)
		b.Run(short+"/cold", func(b *testing.B) {
			gens := 0
			for n := 0; n < b.N; n++ {
				gens = tr.gensToTarget(b, nil)
			}
			b.ReportMetric(float64(gens), "gens_to_target")
		})
		b.Run(short+"/seeded", func(b *testing.B) {
			gens := 0
			for n := 0; n < b.N; n++ {
				gens = tr.gensToTarget(b, tr.seeds)
			}
			b.ReportMetric(float64(gens), "gens_to_target")
		})
	}
}
