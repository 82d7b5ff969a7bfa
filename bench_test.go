package wsndse

// One benchmark per evaluation artifact of the paper's §5 (the harnesses
// of internal/experiments) plus micro-benchmarks of the hot paths. The
// experiment benchmarks run the configurations wsn-experiments runs, the
// delay validation and Figure 5 at reduced budgets, and attach the
// headline quantities as custom metrics, so `go test -bench` both times
// the harness and regenerates the numbers.

import (
	"math/rand"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/cs"
	"wsndse/internal/dse"
	"wsndse/internal/dwt"
	"wsndse/internal/ecg"
	"wsndse/internal/experiments"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

// benchProblem is the case study: the ecg-ward scenario at the shipped
// calibration.
func benchProblem(b *testing.B) *scenario.Problem {
	b.Helper()
	problem, err := scenario.NewProblem(scenario.ECGWard(), casestudy.DefaultCalibration())
	if err != nil {
		b.Fatal(err)
	}
	return problem
}

// benchCompiled is the case study's compiled evaluator.
func benchCompiled(b *testing.B, problem *scenario.Problem) dse.Evaluator {
	b.Helper()
	compiled, err := problem.Compile()
	if err != nil {
		b.Fatal(err)
	}
	return compiled.Evaluator()
}

// benchFeasibleConfig finds one feasible case-study configuration,
// deterministically.
func benchFeasibleConfig(b *testing.B, problem *scenario.Problem) dse.Config {
	b.Helper()
	eval := problem.Evaluator()
	rng := rand.New(rand.NewSource(1))
	for {
		c := problem.Space().Random(rng)
		if _, err := eval.Evaluate(c); err == nil {
			return c
		}
	}
}

// BenchmarkModelEvaluation times one full three-metric model evaluation
// through the reference (object-rebuilding) evaluator — the paper's
// "approximately 4800 evaluations per second" (§5.2). The inverse of ns/op
// is the evaluations-per-second figure.
func BenchmarkModelEvaluation(b *testing.B) {
	problem := benchProblem(b)
	eval := problem.Evaluator()
	cfg := benchFeasibleConfig(b, problem)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e9/float64(b.Elapsed().Nanoseconds())*float64(b.N), "evals/s")
}

// BenchmarkModelEvaluationCompiled is BenchmarkModelEvaluation on the
// compiled pipeline: pre-built MAC/application tables, scratch-reuse
// evaluation into a caller buffer. The equivalence tests guarantee the
// numbers are bit-identical to the reference evaluator's; this benchmark
// shows the speedup and the zero allocs/op.
func BenchmarkModelEvaluationCompiled(b *testing.B) {
	problem := benchProblem(b)
	eval := benchCompiled(b, problem).(dse.Forkable).Fork().(dse.IntoEvaluator)
	cfg := benchFeasibleConfig(b, problem)
	objs := make(dse.Objectives, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eval.EvaluateInto(cfg, objs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e9/float64(b.Elapsed().Nanoseconds())*float64(b.N), "evals/s")
}

// BenchmarkNetworkSimulation times the comparator: one 60-second
// packet-level simulation of the six-node case-study network (the paper's
// Castalia runs took 5–10 minutes each).
func BenchmarkNetworkSimulation(b *testing.B) {
	problem := benchProblem(b)
	cfg, err := problem.SimConfig(defaultBenchParams(), 60, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3EnergyModel regenerates Figure 3 (energy estimation
// accuracy over the f_µC × CR grid) and reports the error statistics.
func BenchmarkFig3EnergyModel(b *testing.B) {
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig3(experiments.Fig3Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MaxErr, "maxerr%")
	b.ReportMetric(res.AvgErrDWT, "dwterr%")
	b.ReportMetric(res.AvgErrCS, "cserr%")
}

// BenchmarkFig4PRDEstimation regenerates Figure 4 (polynomial PRD
// estimator vs the shipped codec measurements).
func BenchmarkFig4PRDEstimation(b *testing.B) {
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig4(experiments.Fig4Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.AvgErrDWT, "dwterr_prd")
	b.ReportMetric(res.AvgErrCS, "cserr_prd")
}

// BenchmarkFig4Calibration times the measured side of Figure 4: running
// both codecs (compression + reconstruction) over the ECG corpus at all
// eight rates.
func BenchmarkFig4Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := casestudy.Calibrate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayValidation runs a scaled version of the §5.1 experiment
// (the full 130 configurations regenerate via `wsn-experiments -run
// delay`) and reports the overestimation statistics.
func BenchmarkDelayValidation(b *testing.B) {
	var res *experiments.DelayValResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.DelayVal(experiments.DelayValConfig{Runs: 20, SimDuration: 15})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.MeanOver)*1e3, "meanover_ms")
	b.ReportMetric(float64(res.Violations), "violations")
}

// BenchmarkFig5DSE regenerates Figure 5 at a reduced search budget and
// reports the baseline's share of the full tradeoff set (paper: ≈7 %).
func BenchmarkFig5DSE(b *testing.B) {
	var res *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig5(experiments.Fig5Config{PopulationSize: 48, Generations: 25})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.SizeRatio*100, "baseline_tradeoffs%")
	b.ReportMetric(float64(len(res.FullFront)), "front_points")
}

// ---- micro-benchmarks of the hot paths ----

func benchECGBlock(b *testing.B) []float64 {
	b.Helper()
	g, err := ecg.NewGenerator(ecg.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return g.Generate(512)
}

// BenchmarkDWTCompress times one 512-sample block through the wavelet
// codec at CR = 0.23.
func BenchmarkDWTCompress(b *testing.B) {
	block := benchECGBlock(b)
	codec := dwt.NewCodec(dwt.Daubechies4(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Compress(block, 0.23, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSDecodeOMP times compressed-sensing reconstruction by
// orthogonal matching pursuit, the coordinator-side cost.
func BenchmarkCSDecodeOMP(b *testing.B) {
	block := benchECGBlock(b)
	codec := cs.NewCodec(512, dwt.Daubechies4(), 5, 1)
	z, err := codec.Compress(block, 0.23, 12)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := codec.Decompress(z.Payload); err != nil { // warm the dictionary cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decompress(z.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignInto times the Eq. 1–2 transmission-interval assignment
// into reused scratch, as the compiled hot path runs it (0 allocs/op).
func BenchmarkAssignInto(b *testing.B) {
	mac, err := core.NewGTSMac(ieee.SuperframeConfig{BeaconOrder: 3, SuperframeOrder: 2}, 48, 6)
	if err != nil {
		b.Fatal(err)
	}
	phi := []units.BytesPerSecond{64, 86, 64, 120, 86, 143}
	var a core.Assignment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.AssignHeteroInto(&a, mac, nil, phi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventEngineTyped times raw scheduler throughput: schedule-and-run
// chains of dependent events on the engine's typed path — slab slots off a
// free list, an index-addressed heap, dispatch by (kind, node, arg) — with
// zero allocations per event in steady state.
func BenchmarkEventEngineTyped(b *testing.B) {
	e := sim.NewEngine()
	count := 0
	e.SetDispatcher(func(kind uint8, node int32, arg float64) {
		count++
		if count < 1000 {
			e.ScheduleAfter(0.001, 1, node, arg)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count = 0
		e.ScheduleAfter(0.001, 1, 0, 0)
		e.Run(e.Now() + 10)
		if count != 1000 {
			b.Fatal("engine lost events")
		}
	}
	b.ReportMetric(float64(b.N)*1000/b.Elapsed().Seconds(), "events/s")
}

// benchBatchConfigs draws one fixed batch of case-study configurations for
// the EvaluateBatch benchmarks.
func benchBatchConfigs(problem *scenario.Problem, n int) []dse.Config {
	rng := rand.New(rand.NewSource(7))
	configs := make([]dse.Config, n)
	for i := range configs {
		configs[i] = problem.Space().Random(rng)
	}
	return configs
}

// benchEvaluateBatch times one 256-configuration batch through a fresh
// ParallelEvaluator (fresh so the memo cache cannot trivialize the work).
// Comparing the Sequential and Parallel variants measures the worker-pool
// speedup of the batch runtime itself; the Compiled variants swap in the
// compiled pipeline. evals/s is directly comparable to
// BenchmarkModelEvaluation.
func benchEvaluateBatch(b *testing.B, workers int, compiled bool) {
	problem := benchProblem(b)
	eval := problem.Evaluator()
	if compiled {
		eval = benchCompiled(b, problem)
	}
	configs := benchBatchConfigs(problem, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe := dse.NewParallelEvaluator(eval, workers)
		pe.EvaluateBatch(configs)
	}
	b.ReportMetric(float64(b.N*len(configs))/b.Elapsed().Seconds(), "evals/s")
}

func BenchmarkEvaluateBatchSequential(b *testing.B)         { benchEvaluateBatch(b, 1, false) }
func BenchmarkEvaluateBatchParallel(b *testing.B)           { benchEvaluateBatch(b, 0, false) }
func BenchmarkEvaluateBatchCompiledSequential(b *testing.B) { benchEvaluateBatch(b, 1, true) }
func BenchmarkEvaluateBatchCompiledParallel(b *testing.B)   { benchEvaluateBatch(b, 0, true) }

// benchExplore times a full NSGA-II exploration of the case study at the
// given worker count. The Sequential/Parallel pair demonstrates (rather
// than asserts) the end-to-end speedup of the concurrent batch runtime on
// multi-core hardware; the dse equivalence tests guarantee both variants
// return identical fronts.
func benchExplore(b *testing.B, workers int) {
	problem := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dse.Search{Algorithm: "nsga2", Seed: 11, Workers: workers,
			NSGA2: &dse.NSGA2Config{PopulationSize: 32, Generations: 8},
		}.Run(problem.Space(), problem.Evaluator(), dse.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty front")
		}
	}
}

func BenchmarkExploreSequential(b *testing.B) { benchExplore(b, 1) }
func BenchmarkExploreParallel(b *testing.B)   { benchExplore(b, 0) }

// BenchmarkNSGA2Generation times the genetic algorithm on the case study
// at one-generation granularity (population 32).
func BenchmarkNSGA2Generation(b *testing.B) {
	problem := benchProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search := dse.Search{Algorithm: "nsga2", Seed: int64(i + 1),
			NSGA2: &dse.NSGA2Config{PopulationSize: 32, Generations: 1}}
		if _, err := search.Run(problem.Space(), problem.Evaluator(), dse.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func defaultBenchParams() scenario.Params {
	n := casestudy.DefaultNodes
	p := scenario.Params{
		BeaconOrder:     3,
		SuperframeOrder: 2,
		PayloadBytes:    48,
		CR:              make([]float64, n),
		MicroFreq:       make([]units.Hertz, n),
	}
	for i := 0; i < n; i++ {
		p.CR[i] = 0.23
		p.MicroFreq[i] = 8e6
	}
	return p
}

// BenchmarkAblationTheta regenerates the Eq. 8 balance-weight ablation and
// reports the front imbalance at the extreme settings.
func BenchmarkAblationTheta(b *testing.B) {
	var res *experiments.ThetaAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ThetaAblation(experiments.ThetaAblationConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Rows[0].MeanImbalance*100, "imbalance_theta0%")
	b.ReportMetric(res.Rows[len(res.Rows)-1].MeanImbalance*100, "imbalance_thetamax%")
}

// BenchmarkAblationArrival regenerates the uniform-vs-block arrival
// ablation behind Eq. 9's validity.
func BenchmarkAblationArrival(b *testing.B) {
	var res *experiments.ArrivalAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ArrivalAblation(experiments.ArrivalAblationConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.UniformViolations), "uniform_violations")
	b.ReportMetric(float64(res.BlockViolations), "block_violations")
}
