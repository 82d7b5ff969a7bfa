package dse

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// memoShards is the number of independently locked cache shards. A shard
// lock is held only to look a configuration up, reserve it or publish its
// result, never across an evaluation, so a few shards keep workers from
// serializing on one mutex; each costs three allocations at its first
// miss, which a fresh evaluator's first batch pays.
const memoShards = 16

// Arena and table sizing. A shard's first miss allocates the shard, with
// a 32-slot table inside it, and a 16-entry chunk of each arena; every
// later chunk holds twice the entries of the one before, so a long search
// adds O(log n) chunks, and 28 chunks hold every int32 entry number.
const (
	memoTable0  = 32
	memoChunk0  = 16
	memoChunks  = 28
	memoFibHash = 0x9E3779B97F4A7C15 // spreads Config.Hash over the table
)

// slotState is the life cycle of one memo entry.
type slotState uint8

const (
	slotEmpty      slotState = iota
	slotPending              // reserved; its evaluation is in flight
	slotFeasible             // published with its objectives
	slotInfeasible           // published as a constraint violation
	slotAbandoned            // its evaluation panicked; the next lookup retries it
)

// memoSlot is one open-addressing table entry: the configuration's hash,
// its entry number in the shard's arenas and its state.
type memoSlot struct {
	hash  uint64
	entry int32
	state slotState
}

// memoShard is one lock's share of the memo, allocated at the first miss
// that hashes to it. Entry e's packed genes (one byte each) and its
// objectives live at offset e in chunked flat arenas (chunkOf maps e to a
// chunk and an offset); chunks never move, so the objectives handed out
// alias them for as long as anything holds one. The gene stride is fixed
// by the shard's first miss; a configuration that does not pack (another
// length, or a gene outside [0, 256)) is kept apart in odd, as a full
// copy, under entry −1−i.
type memoShard struct {
	mu     sync.Mutex
	ready  sync.Cond  // waiters on a pending slot; L is &mu
	slots  []memoSlot // power-of-two length, table0 until the first growth
	shift  uint       // 64 − log2(len(slots))
	used   int
	stride int   // genes per entry
	nobj   int   // objectives per entry
	n      int32 // arena entries
	genes  [memoChunks][]uint8
	objs   [memoChunks][]float64
	odd    []Point
	table0 [memoTable0]memoSlot
}

// newMemoShard returns an empty shard whose arenas take configurations of
// stride genes and nobj objectives.
func newMemoShard(stride, nobj int) *memoShard {
	sh := &memoShard{stride: stride, nobj: nobj, shift: uint(64 - bits.TrailingZeros(memoTable0))}
	sh.ready.L = &sh.mu
	sh.slots = sh.table0[:]
	return sh
}

// chunkOf maps arena entry e to its chunk and its offset in that chunk.
func chunkOf(e int32) (k, off int) {
	k = bits.Len(uint(e)/memoChunk0+1) - 1
	return k, int(e) - memoChunk0*(1<<k-1)
}

// packs reports whether c fits the arena: stride genes, each in [0, 256).
func (sh *memoShard) packs(c Config) bool {
	if len(c) != sh.stride {
		return false
	}
	for _, v := range c {
		if uint(v) > 255 {
			return false
		}
	}
	return true
}

// packed returns entry e's packed genes.
func (sh *memoShard) packed(e int32) []uint8 {
	k, off := chunkOf(e)
	g := off * sh.stride
	return sh.genes[k][g : g+sh.stride : g+sh.stride]
}

// holds reports whether entry e is configuration c.
func (sh *memoShard) holds(e int32, c Config) bool {
	if e < 0 {
		return sh.odd[-1-e].Config.Equal(c)
	}
	if len(c) != sh.stride {
		return false
	}
	for i, g := range sh.packed(e) {
		if int(g) != c[i] {
			return false
		}
	}
	return true
}

// objectives returns entry e's objective storage.
func (sh *memoShard) objectives(e int32) Objectives {
	if e < 0 {
		return sh.odd[-1-e].Objs
	}
	k, off := chunkOf(e)
	o := off * sh.nobj
	return sh.objs[k][o : o+sh.nobj : o+sh.nobj]
}

// point returns the published Point of slot s for configuration c. An
// infeasible point carries no objective vector.
func (sh *memoShard) point(s memoSlot, c Config) Point {
	p := Point{Config: c, Feasible: s.state == slotFeasible}
	if p.Feasible {
		p.Objs = sh.objectives(s.entry)
	}
	return p
}

// find probes for c: it returns c's slot and true, or the empty slot
// where c belongs and false.
func (sh *memoShard) find(h uint64, c Config) (int, bool) {
	mask := len(sh.slots) - 1
	for i := int((h * memoFibHash) >> sh.shift); ; i = (i + 1) & mask {
		s := &sh.slots[i]
		if s.state == slotEmpty {
			return i, false
		}
		if s.hash == h && sh.holds(s.entry, c) {
			return i, true
		}
	}
}

// reserve is the first half of the memo protocol; the caller holds sh.mu.
// It returns c's slot and true when c is already known (published or
// pending). Otherwise it claims a pending slot, packs c's genes into the
// arena and returns the new slot and false: the caller then evaluates
// into the entry's objectives with the lock released and publishes.
func (sh *memoShard) reserve(h uint64, c Config) (int, bool) {
	i, ok := sh.find(h, c)
	if ok {
		return i, true
	}
	if 4*(sh.used+1) > 3*len(sh.slots) {
		sh.grow()
		i, _ = sh.find(h, c)
	}
	sh.slots[i] = memoSlot{hash: h, entry: sh.store(c), state: slotPending}
	sh.used++
	return i, false
}

// store packs c into the arenas, or keeps a copy in odd when it does not
// pack, and returns its entry number.
func (sh *memoShard) store(c Config) int32 {
	if !sh.packs(c) {
		sh.odd = append(sh.odd, Point{Config: c.Clone(), Objs: make(Objectives, sh.nobj)})
		return int32(-len(sh.odd))
	}
	e := sh.n
	sh.n++
	k, off := chunkOf(e)
	if off == 0 {
		sh.genes[k] = make([]uint8, (memoChunk0<<k)*sh.stride)
		sh.objs[k] = make([]float64, (memoChunk0<<k)*sh.nobj)
	}
	g := sh.packed(e)
	for i, v := range c {
		g[i] = uint8(v)
	}
	return e
}

// grow doubles the table and re-inserts every slot.
func (sh *memoShard) grow() {
	old := sh.slots
	sh.slots = make([]memoSlot, 2*len(old))
	sh.shift--
	mask := len(sh.slots) - 1
	for _, s := range old {
		if s.state == slotEmpty {
			continue
		}
		i := int((s.hash * memoFibHash) >> sh.shift)
		for sh.slots[i].state != slotEmpty {
			i = (i + 1) & mask
		}
		sh.slots[i] = s
	}
}

// IntoEvaluator is an Evaluator that can additionally write its objectives
// into a caller-provided buffer of length NumObjectives(), avoiding the
// per-call Objectives allocation. The compiled scenario evaluator
// (scenario.Compiled) implements it; the batch runtime evaluates each
// miss straight into the memo's objective arena through it.
type IntoEvaluator interface {
	Evaluator
	EvaluateInto(c Config, objs Objectives) error
}

// Forkable is an Evaluator that can hand out per-worker instances sharing
// its immutable tables but owning private mutable scratch. The batch
// runtime forks one instance per worker, so the scratch needs no
// synchronization: workers partition batch indices and each index is
// evaluated entirely on one worker's instance.
type Forkable interface {
	Fork() Evaluator
}

// ParallelEvaluator wraps an Evaluator with a sharded memo cache keyed on
// the configurations' uint64 hash and per-worker evaluator instances for
// at most workers concurrent evaluations. It is the batch-evaluation
// runtime every search algorithm in this package runs on: NSGA-II, MOSA,
// exhaustive and random search fan their evaluations out on the run's own
// evaluation pool (evalPool), EvaluateBatch on a pool of its own for the
// call, and the sequential path is simply workers = 1.
//
// Determinism contract: the wrapped Evaluator must be a pure function of
// the configuration (every evaluator in this repository is). Under that
// assumption EvaluateBatch returns bit-identical results in input order at
// any worker count, each distinct configuration is evaluated exactly once
// process-wide, and Stats reports scheduling-independent counts.
//
// The wrapped Evaluator is called from multiple goroutines concurrently;
// stateless evaluators need no synchronization of their own, and Forkable
// evaluators get one private instance per worker. Overlapping
// EvaluateBatch calls run one after another, since each call's pool uses
// the instances of workers 0…k.
//
// The memo keeps each configuration's genes packed, one byte per gene,
// not the caller's slice. A returned Point carries the caller's own
// configuration: it is valid while its caller keeps that slice unchanged,
// and the caller that reuses the slice must first copy out any genes it
// still needs (Archive does). Duplicates in one batch give equal Points,
// each carrying its own slice. A Point's objectives alias the memo's
// objective arena: they must not be mutated, and they keep a whole arena
// chunk alive, so a search result that outlives its run is copied out
// (see detach).
type ParallelEvaluator struct {
	perWorker  []Evaluator // perWorker[w] is used only by worker w
	batch      sync.Mutex  // held by EvaluateBatch for the call
	workers    int
	nobj       int
	shards     [memoShards]atomic.Pointer[memoShard]
	evaluated  atomic.Int64
	infeasible atomic.Int64
	hits       atomic.Int64
}

// NewParallelEvaluator wraps inner with a batch runtime running at most
// workers concurrent evaluations. workers <= 0 selects GOMAXPROCS. The
// memo allocates nothing until its first miss.
func NewParallelEvaluator(inner Evaluator, workers int) *ParallelEvaluator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pe := &ParallelEvaluator{workers: workers, nobj: inner.NumObjectives()}
	pe.perWorker = make([]Evaluator, workers)
	for w := range pe.perWorker {
		if f, ok := inner.(Forkable); ok {
			pe.perWorker[w] = f.Fork()
		} else {
			pe.perWorker[w] = inner
		}
	}
	return pe
}

// shard returns the shard of hash h, allocating it on first use for
// configurations like c.
func (pe *ParallelEvaluator) shard(h uint64, c Config) *memoShard {
	p := &pe.shards[h%memoShards]
	if sh := p.Load(); sh != nil {
		return sh
	}
	p.CompareAndSwap(nil, newMemoShard(len(c), pe.nobj))
	return p.Load()
}

// Workers returns the pool bound.
func (pe *ParallelEvaluator) Workers() int { return pe.workers }

// NumObjectives forwards to the wrapped evaluator, so a ParallelEvaluator
// is itself usable wherever an objective count is needed.
func (pe *ParallelEvaluator) NumObjectives() int { return pe.nobj }

// evalFor evaluates c on worker w's private evaluator instance and
// returns its point, whose Config is c itself. The caller must guarantee
// at most one goroutine uses each w at a time (an evalPool does).
//
// It runs the memo protocol: reserve c under its shard's lock, evaluate a
// miss into the arena with the lock released, publish. The first
// goroutine to reserve a configuration owns its evaluation; every other
// one waits on the shard's condition variable until it is published.
// That gives exactly-once evaluation per distinct configuration
// regardless of scheduling, which is what keeps the Evaluated/Infeasible
// counts identical at any worker count. An evaluation that panics leaves
// its slot abandoned, not pending: the waiters wake, and the first of
// them takes the evaluation over. The memo allocates nothing for a hit,
// nor for a miss while its shard's table and arena chunk have room.
func (pe *ParallelEvaluator) evalFor(w int, c Config) Point {
	h := c.Hash()
	sh := pe.shard(h, c)
	sh.mu.Lock()
	i, known := sh.reserve(h, c)
	for known && sh.slots[i].state == slotPending {
		sh.ready.Wait()
		i, _ = sh.find(h, c) // the table may have grown meanwhile
	}
	if known && sh.slots[i].state != slotAbandoned {
		p := sh.point(sh.slots[i], c)
		sh.mu.Unlock()
		pe.hits.Add(1)
		return p
	}
	sh.slots[i].state = slotPending
	objs := sh.objectives(sh.slots[i].entry)
	sh.mu.Unlock()
	return pe.miss(pe.perWorker[w], sh, h, c, objs)
}

// miss evaluates the configuration c whose slot the caller reserved, and
// publishes it, or abandons the slot if the evaluator panics.
func (pe *ParallelEvaluator) miss(inner Evaluator, sh *memoShard, h uint64, c Config, objs Objectives) Point {
	ok := false
	defer func() {
		if !ok {
			sh.settle(h, c, slotAbandoned)
		}
	}()
	err := pe.evaluate(inner, c, objs)
	ok = true
	pe.evaluated.Add(1)
	if err != nil {
		pe.infeasible.Add(1)
	}
	return sh.publish(h, c, err == nil)
}

// prime inserts an already-evaluated point into the memo cache without
// touching the Stats counters — how resumed searches rehydrate the results
// a snapshot carries, so re-drawn configurations are cache hits instead of
// re-evaluations. A configuration already cached is left as-is.
func (pe *ParallelEvaluator) prime(p Point) {
	h := p.Config.Hash()
	sh := pe.shard(h, p.Config)
	sh.mu.Lock()
	i, known := sh.reserve(h, p.Config)
	objs := sh.objectives(sh.slots[i].entry)
	sh.mu.Unlock()
	if !known {
		copy(objs, p.Objs)
		sh.publish(h, p.Config, p.Feasible)
	}
}

// publish ends the memo protocol for c's pending slot: it records whether
// the evaluation was feasible, wakes the waiters and returns the point.
func (sh *memoShard) publish(h uint64, c Config, feasible bool) Point {
	state := slotInfeasible
	if feasible {
		state = slotFeasible
	}
	return sh.settle(h, c, state)
}

// settle moves c's pending slot to state, wakes the waiters and returns
// the slot's point.
func (sh *memoShard) settle(h uint64, c Config, state slotState) Point {
	sh.mu.Lock()
	i, _ := sh.find(h, c)
	sh.slots[i].state = state
	p := sh.point(sh.slots[i], c)
	sh.mu.Unlock()
	sh.ready.Broadcast()
	return p
}

// evaluate writes c's objectives into objs, through the scratch API when
// inner provides one. An Evaluator that returns a vector of another length
// than NumObjectives is broken, and evaluate panics rather than store it.
func (pe *ParallelEvaluator) evaluate(inner Evaluator, c Config, objs Objectives) error {
	if ie, ok := inner.(IntoEvaluator); ok {
		return ie.EvaluateInto(c, objs)
	}
	got, err := inner.Evaluate(c)
	if err == nil {
		if len(got) != len(objs) {
			panic(fmt.Sprintf("dse: evaluator returned %d objectives, NumObjectives is %d", len(got), len(objs)))
		}
		copy(objs, got)
	}
	return err
}

// ForEach runs fn(i) for every i in [0,n) on at most workers goroutines
// (workers <= 0 selects GOMAXPROCS; one worker runs inline), started for
// the call; the caller parks until they have all exited. Goroutines claim
// indices from an atomic counter, so scheduling affects only when each
// index runs, never whether. It is the fan-out for coarse jobs that run
// for milliseconds each, the experiments job runner and xcheck.Sweep,
// where a spinning wait would only burn a CPU; every configuration
// evaluation runs on an evalPool instead. A panic in fn stops the other
// goroutines claiming indices and, once all have stopped, is raised again
// on the caller's goroutine as a *WorkerPanic.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// One struct, so the goroutines' shared state is one allocation.
	var fan struct {
		next    atomic.Int64
		failure atomic.Pointer[WorkerPanic]
		wg      sync.WaitGroup
	}
	fan.wg.Add(workers)
	for range workers {
		go func() {
			defer fan.wg.Done()
			defer func() {
				if v := recover(); v != nil {
					fan.failure.CompareAndSwap(nil, newWorkerPanic(v))
					fan.next.Store(int64(n))
				}
			}()
			for {
				i := int(fan.next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	fan.wg.Wait()
	if wp := fan.failure.Load(); wp != nil {
		panic(wp)
	}
}

// WorkerPanic is what a panic on a worker goroutine (ForEach's, or an
// evaluation pool's) becomes on the goroutine that started the work: the
// recovered value and the stack of the goroutine that panicked, captured
// where it panicked. It is raised only once every worker has stopped, so a
// caller that recovers it can go on.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// newWorkerPanic wraps a recovered value with the current stack; a value
// that is already a *WorkerPanic, from a fan-out nested in fn, is kept.
func newWorkerPanic(v any) *WorkerPanic {
	if wp, ok := v.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Value: v, Stack: debug.Stack()}
}

// Error formats the value and the worker's stack, so a WorkerPanic that
// goes unrecovered prints both.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// evalPool is one search run's fan-out: the run's goroutine, as worker 0,
// and workers − 1 helper goroutines that start with the run's first job
// and live until the run returns (stop). The pool runs one job at a time:
// n items, fn(w, i) for each, and an optional tail that runs once every
// item is done. A job opens an epoch and wakes the helpers with a
// non-blocking send each; a helper joins the open epoch with a CAS on
// state, claims items one at a time, and parks on its wake channel again
// when it finds nothing to do. The run's goroutine runs every item no
// helper has claimed, and waits only for items a joined helper already
// holds, so a helper that wakes late costs some lost help, never a stall.
// Items may be published while the job is open (publish), so a helper can
// evaluate a generation's first offspring while variation still writes
// the rest, and once the run's goroutine offers the tail (offerTail), a
// joined helper takes it while the run's goroutine goes on (NSGA-II
// merges its archive there while it ranks and selects).
// Results land by index, so they never depend on which goroutine ran an
// item.
//
// Only three waits spin, and each yields with runtime.Gosched: a helper
// that has claimed the item variation is about to publish, a helper
// waiting for the tail to be offered, and a wait for the one item or tail
// a joined goroutine is running. With one worker the pool starts no
// goroutine and every job runs inline.
//
// A panic on a helper aborts the job and is raised again on the run's
// goroutine as a *WorkerPanic once every joined helper has left it; a
// panic on the run's goroutine unwinds through stop, which aborts the job
// and waits for the helpers to exit.
type evalPool struct {
	helpers int             // workers − 1
	wake    []chan struct{} // one per started helper, with room for one pending wake-up
	quit    chan struct{}
	wg      sync.WaitGroup

	// The job. The run's goroutine writes these only while the epoch is
	// closed and no helper is joined.
	n    int
	fn   func(w, i int)
	tail func()

	state     atomic.Int64 // bit 0: epoch open; above it, 2 × joined helpers
	_         [56]byte
	published paddedCount // items [0, published) are ready
	claimed   paddedCount // next item to claim
	done      paddedCount // items finished
	tailReady atomic.Bool // offerTail has run
	tailTaken atomic.Bool
	aborted   atomic.Bool
	failure   atomic.Pointer[WorkerPanic]
}

// paddedCount is a counter on a cache line of its own.
type paddedCount struct {
	atomic.Int64
	_ [56]byte
}

// start starts the helper goroutines.
func (p *evalPool) start() {
	p.quit = make(chan struct{})
	p.wake = make([]chan struct{}, p.helpers)
	p.wg.Add(len(p.wake))
	for k := range p.wake {
		p.wake[k] = make(chan struct{}, 1)
		go p.helper(k + 1)
	}
}

// helper is worker w's loop: park until woken, join the open job if there
// is one, leave it.
func (p *evalPool) helper(w int) {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake[w-1]:
		}
		if p.join() {
			p.work(w)
			p.state.Add(-2)
		}
	}
}

// join joins the open epoch, if any.
func (p *evalPool) join() bool {
	for {
		s := p.state.Load()
		if s&1 == 0 {
			return false
		}
		if p.state.CompareAndSwap(s, s+2) {
			return true
		}
	}
}

// work is a joined helper's share of the job: claimed items, then, once
// the tail is offered, the tail if no one has taken it. A panic aborts
// the job.
func (p *evalPool) work(w int) {
	defer func() {
		if v := recover(); v != nil {
			p.failure.CompareAndSwap(nil, newWorkerPanic(v))
			p.aborted.Store(true)
		}
	}()
	n := int64(p.n)
	for {
		i := p.claimed.Add(1) - 1
		if i >= n {
			break
		}
		for p.published.Load() <= i {
			if p.aborted.Load() {
				return
			}
			runtime.Gosched()
		}
		if p.aborted.Load() {
			return
		}
		p.fn(w, int(i))
		p.done.Add(1)
	}
	if p.tail == nil {
		return
	}
	for !p.tailReady.Load() && !p.tailTaken.Load() {
		if p.aborted.Load() {
			return
		}
		runtime.Gosched()
	}
	if p.tailTaken.CompareAndSwap(false, true) {
		p.tail()
	}
}

// open starts a job of n items, of which none is published yet, and
// wakes the helpers, starting them at the run's first job.
func (p *evalPool) open(n int, fn func(w, i int), tail func()) {
	p.n, p.fn, p.tail = n, fn, tail
	if p.helpers == 0 {
		return
	}
	if p.wake == nil {
		p.start()
	}
	p.published.Store(0)
	p.claimed.Store(0)
	p.done.Store(0)
	p.tailReady.Store(false)
	p.tailTaken.Store(false)
	p.state.Add(1)
	for _, ch := range p.wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// publish makes items [0, k) ready.
func (p *evalPool) publish(k int) {
	if p.wake != nil {
		p.published.Store(int64(k))
	}
}

// finish runs, as worker 0, every item no helper has claimed, and returns
// once every item is done. All n items must be published.
func (p *evalPool) finish() {
	n := int64(p.n)
	if p.wake == nil {
		for i := 0; i < p.n; i++ {
			p.fn(0, i)
		}
		return
	}
	for !p.aborted.Load() {
		i := p.claimed.Add(1) - 1
		if i >= n {
			break
		}
		p.fn(0, int(i))
		p.done.Add(1)
	}
	for p.done.Load() < n && !p.aborted.Load() {
		runtime.Gosched()
	}
	if p.aborted.Load() {
		p.close()
	}
}

// offerTail lets a joined helper take the tail. The run's goroutine calls
// it after finish, once whatever the tail reads is ready.
func (p *evalPool) offerTail() {
	p.tailReady.Store(true)
}

// close runs the tail unless a helper has taken it, closes the epoch and
// waits for the joined helpers to leave, and raises a helper's panic.
func (p *evalPool) close() {
	if p.wake == nil {
		if p.tail != nil {
			p.tail()
		}
		return
	}
	if p.tail != nil && !p.aborted.Load() && p.tailTaken.CompareAndSwap(false, true) {
		p.tail()
	}
	p.closeEpoch()
	if wp := p.failure.Load(); wp != nil {
		panic(wp)
	}
}

// closeEpoch closes the open epoch, if any, and waits for the joined
// helpers to leave it.
func (p *evalPool) closeEpoch() {
	if p.state.Load()&1 != 0 {
		p.state.Add(-1)
	}
	for p.state.Load() != 0 {
		runtime.Gosched()
	}
}

// run runs a job of n items, all ready at once, with no tail.
func (p *evalPool) run(n int, fn func(w, i int)) {
	p.open(n, fn, nil)
	p.publish(n)
	p.finish()
	p.close()
}

// stop aborts any open job, waits for the joined helpers to leave it, and
// stops the helpers. The run defers it, so it runs on every way out,
// panics included.
func (p *evalPool) stop() {
	if p.wake == nil {
		return
	}
	p.aborted.Store(true)
	p.closeEpoch()
	close(p.quit)
	p.wg.Wait()
}

// EvaluateBatch evaluates every configuration on an evaluation pool of
// min(Workers, len(configs)) started for the call (one worker runs it
// inline), and returns the points in input order: out[i] is configs[i]'s
// evaluation, and out[i].Config is configs[i] itself. Duplicate
// configurations (within the batch or across batches) cost one evaluation
// and yield equal Points, each carrying its own slice. Concurrent calls
// are serialized. A search run evaluates on its own pool instead
// (runState.evaluate).
func (pe *ParallelEvaluator) EvaluateBatch(configs []Config) []Point {
	pe.batch.Lock()
	defer pe.batch.Unlock()
	out := make([]Point, len(configs))
	p := evalPool{helpers: max(min(pe.workers, len(configs))-1, 0)}
	defer p.stop()
	p.run(len(configs), func(w, i int) { out[i] = pe.evalFor(w, configs[i]) })
	return out
}

// Stats returns how many distinct configurations have been evaluated and
// how many of those were infeasible. The counts are scheduling-independent:
// they depend only on the set of configurations submitted.
func (pe *ParallelEvaluator) Stats() (evaluated, infeasible int) {
	return int(pe.evaluated.Load()), int(pe.infeasible.Load())
}

// CacheStats returns memo-cache traffic: lookups is every evaluation
// request routed through the cache (hits + distinct evaluations), hits
// the requests answered without running the evaluator. The hit rate
// hits/lookups is the telemetry signal for how much of the search is
// revisiting known configurations. Unlike Stats, hits is mildly
// scheduling-dependent: a configuration raced by two goroutines counts
// one evaluation and one hit regardless of which wins, but repeated
// draws of cached points depend only on the search trajectory.
func (pe *ParallelEvaluator) CacheStats() (lookups, hits int64) {
	h := pe.hits.Load()
	return h + pe.evaluated.Load(), h
}
