// Package wsndse reproduces "Design Exploration of Energy-Performance
// Trade-Offs for Wireless Sensor Networks" (Beretta, Rincón, Khaled,
// Grassi, Rana, Atienza — DAC 2012): a system-level analytical model of
// wireless body sensor networks fast and accurate enough to drive
// multi-objective design-space exploration, validated against a
// packet-level IEEE 802.15.4 simulator and real compression codecs.
//
// The library layers, bottom to top:
//
//   - internal/units, internal/numeric, internal/bitpack — typed physical
//     quantities, polynomial fitting and statistics, bit packing;
//   - internal/ecg, internal/quality — synthetic ECG generation, the ADC
//     front end, and signal-fidelity metrics (PRD);
//   - internal/dwt, internal/cs — the two ECG compressors of the case
//     study, implemented end to end (wavelet thresholding codec and a
//     compressed-sensing codec with OMP reconstruction);
//   - internal/ieee802154, internal/radio, internal/platform — the
//     beacon-enabled MAC geometry, a CC2420-class transceiver model, and
//     the Shimmer-class node hardware characterization;
//   - internal/app — the paper's application triple h/k/e;
//   - internal/core — the paper's contribution: the abstract MAC model,
//     the Eq. 1–2 assignment, the Eq. 3–7 node energy model, the Eq. 9
//     delay bound, and the Eq. 8 network metrics;
//   - internal/sim — a discrete-event, packet-level simulator with
//     device-level energy accounting (the measurement/Castalia stand-in);
//   - internal/dse, internal/baseline, internal/casestudy,
//     internal/experiments — the exploration framework, the energy/delay
//     comparator, what only the §4 case study owns (the one codec
//     calibration behind the shipped quality polynomials, and the
//     application kinds), and one harness per figure/table, each running
//     the paper's one configuration of it;
//   - internal/scenario — the scenario engine: declarative heterogeneous
//     workloads, their design-space formulation and evaluators, plus the
//     process-wide registry the CLIs, experiments and examples select
//     workloads from (the §4 case study is the ecg-ward scenario);
//   - internal/service — the DSE-as-a-service layer: a job-oriented
//     exploration runtime (bounded-worker manager, SSE progress streams,
//     checkpoint/resume, versioned result store) behind a JSON HTTP API
//     (cmd/wsn-serve) and a Go client.
//
// Conceptually the stack is four layers — model → scenario → search →
// service — each consuming only the one below: the model evaluates
// configurations, scenarios define spaces of them, searches walk those
// spaces, and the service schedules many searches for many consumers.
//
// # Scenario engine
//
// A scenario.Scenario declares one heterogeneous star workload — per-node
// applications (the calibrated compressors or raw streams), platforms,
// payload profiles, traffic model, explorable MAC axes and the Eq. 8
// balance weight — and scenario.NewProblem compiles it into a per-node
// design space with matching materializations for both sides of the
// stack: core.Network with per-node MAC views for nodes carrying their
// own payload profile, and sim.Config with per-node payload/arrival
// overrides. Five workloads ship registered (ecg-ward, mixed-ward,
// athletes, dense-gts, raw-stream); wsn-explore -list-scenarios prints
// them and wsn-experiments -run scenarios sweeps them all, including the
// GTS-starvation node-count sweep over the protocol's 7-slot budget.
//
// # Concurrent batch evaluation
//
// The exploration stack runs on a concurrent batch-evaluation runtime
// (dse.ParallelEvaluator): search algorithms produce candidate
// configurations sequentially from their seeded RNGs and evaluate them
// across a bounded set of worker goroutines (one evaluation pool per run,
// whose goroutines live as long as the run, for all four algorithms)
// backed by a sharded memo cache.
// Fronts and evaluation counts are bit-identical at every worker count —
// parallelism changes wall-clock, never results. The per-figure harnesses
// in internal/experiments run as coarse jobs on dse.ForEach
// (experiments.RunJobsContext), and internal/cs builds its per-rate
// reconstruction dictionaries under a per-codec lock that never blocks
// concurrent decoders. See the dse package documentation for the exact
// determinism guarantees.
//
// # Compiled evaluation pipeline
//
// The analytical model's reason to exist is being orders of magnitude
// faster than simulation, so the evaluation hot path is engineered to be
// allocation-free. Only Eq. 1's capacity sum, Eq. 9's cross-node sums
// and Eq. 8's combines depend on more than one node, so
// scenario.Problem.Compile() tabulates every other term once per
// problem: per (BO × SFO gap × payload) grid point the MAC errors and the
// Eq. 9 2·T_svc; per (BO, SFO gap) superframe the quantum, capacity,
// Δ_control and Eq. 9 constants; per distinct node model (ecg-ward has
// two, DWT and CS) the Eq. 1 slot multiplier k per (BO, SFO gap, payload,
// CR), the Eq. 6 radio power per (BO, payload, CR) and the Eq. 3–5
// sensor + µC + memory power per (CR, f_µC). An evaluation is table
// lookups, Σ k·δ with the capacity check, Eq. 9 for every node in one
// O(n) pass and the three Eq. 8 combines. Every entry comes from the core
// helpers the reference Network.EvaluateInto calls (Node.LocalEnergy,
// Node.RadioPower, Slots, Interval, Budget, GTSMac.DelayTerms), so the
// two evaluators agree bit for bit by construction, errors included. The
// batch runtime's memo cache keys on a uint64 hash of the gene indices
// and keeps each configuration packed, one byte per gene, so steady-state
// evaluation performs zero heap allocations and the memo holds about a
// hundred bytes per distinct configuration. Equivalence
// tests assert the compiled evaluator returns bit-identical objectives and
// identical errors to the reference evaluator for every registered
// scenario and a sample of both families, at worker counts 1 and 8, and
// at every table entry of ecg-ward, mixed-ward and dense-gts;
// testing.AllocsPerRun regression tests pin the hot path at 0 allocs/op.
//
// The pipeline relies on the evaluator determinism/purity contract: an
// evaluator must be a pure function of the configuration (no hidden
// state, no randomness, no clock), which is what lets tables be built
// once, results be memoized process-wide, one stateless compiled
// evaluator serve every worker, and fronts stay bit-identical at every
// worker count.
//
// # Search-layer performance
//
// With evaluation allocation-free, the search machinery above it is
// engineered the same way. NSGA-II runs ENS with binary search over
// fronts; with at most three objectives (every scenario's energy, quality
// loss and delay) each front is a 2-D staircase over (f2, f3), so asking
// whether a front dominates a lexicographically later point is one
// binary search (the maxima-of-vectors sweep), and four or more
// objectives scan the front. The sort runs on a reusable workspace,
// ranks each generation's parent∪offspring union exactly once (the
// survivors carry their union rank and crowding into the next
// generation's tournaments, as in Deb's formulation), and recycles gene
// and point buffers (the discarded half of each union hands its gene
// buffers to the next offspring), so a steady-state generation performs
// zero heap allocations. The Pareto archive stores its front sorted by lexicographic
// objective order: a batch of evaluations (an NSGA-II generation, an
// exhaustive or random batch, a snapshot restore, a merge of fronts) is
// folded in by one sorted merge and one staircase sweep, with the same
// result as adding its points one by one, and MOSA's single candidates
// take the incremental insert. The archive copies the genes of each
// point it keeps into buffers it recycles on eviction, since the batch
// runtime hands back the caller's own configurations; MOSA chains trade
// two gene buffers with the candidates they accept. The sim engine's event core is typed: value-slot events in a
// slab recycled through a free list, ordered by a min-heap of
// (time, seq, slot) entries and dispatched by (kind, node, arg) with no
// closure or interface boxing; radio transitions stay off the heap, on
// per-node timelines applied lazily in the same (time, seq) order.
// Property tests prove the fast sort produces exactly the naive
// reference's ranks and bit-identical crowding on randomized
// and front-shaped populations with two to four objectives, seeded
// NSGA-II runs are bit-identical with either sort wired in, and the
// archive, incremental or batched, retains exactly the naive archive's
// points; AllocsPerRun regression tests pin the generation loop, the
// annealing chain and the typed event path at 0 allocs/op, and CI runs
// them uninstrumented in the test matrix.
//
// # Exploration service
//
// The search layer exposes three cross-cutting run controls through
// dse.Options, all hooked at generation/segment/batch boundaries so the
// allocation-free hot loops are untouched. The four searches share one
// run harness that passes every boundary, 1 through the run's total, the
// last included: cooperative cancellation
// (context.Context; SIGINT in the CLIs flushes the partial front),
// boundary telemetry (dse.StatsSink receives step counters, memo-cache
// hits and the archive's own front slice, valid only during the call: a
// sink that keeps the front must copy it; it is the one sink every search
// the service and the CLIs run attaches), and checkpoint/resume (dse.Snapshot
// serializes the complete search state — population, archives, chain
// temperatures, and the RNG, which draws from a SplitMix64 source
// precisely so its whole state is one uint64). A run resumed from a
// snapshot replays the uninterrupted trajectory bit for bit.
//
// internal/service builds the multi-tenant runtime on those hooks: jobs
// (scenario × algorithm × seed) validated against the registry, a
// bounded-worker Manager with queued → running → done/failed/cancelled
// lifecycles, per-job event hubs streamed as server-sent events, durable
// snapshot files, and a versioned store of finished fronts queryable by
// scenario/algorithm. A finished job keeps its info, events, stats window
// and one packed front (one byte per gene, the objectives in one slab)
// shared with the store, and every read of the front builds the caller
// a copy of its own; its checkpoint anchor and warm-start seeds live
// only while it runs. One bound, the store's MaxResults, also caps the
// finished job records the Manager keeps: past it the record that
// finished first is dropped, so a server's memory does not grow with
// the jobs it has served. Seeded jobs return
// bit-identical fronts regardless of service concurrency — jobs share
// nothing mutable but code paths already proven scheduling-independent.
// cmd/wsn-serve serves the HTTP API; service.Client consumes it;
// examples/service walks the flow; and CI's service-smoke job diffs a
// real submit→poll→front round-trip against a committed golden front.
//
// The benchmarks in bench_test.go regenerate every evaluation artifact
// (including parallel-vs-sequential exploration pairs and the
// reference-vs-compiled evaluator twins, with allocs/op reported);
// cmd/wsn-experiments prints them as tables. Its flags size only the
// delay validation (-delay-runs, -sim-duration) and Figure 5's searches
// (-pop, -gen); every other grid, budget and seed is fixed in the
// harness. Both it and cmd/wsn-explore take -workers N plus
// -cpuprofile/-memprofile for pprof.
package wsndse
