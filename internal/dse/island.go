package dse

import (
	"fmt"
	"sort"
)

// This file holds the dse-level primitives of island-model search: seed
// forking and migrant selection/injection on snapshots. The coordinator
// that runs and supervises islands and drives the migration ring lives
// in internal/service/island, and an island run's checkpoint is one
// Snapshot per island; everything here is pure state manipulation,
// deterministic by construction, so the coordinator's bit-identity
// guarantees reduce to the resume guarantees already proven for
// Snapshot.

// ForkSeed derives island i's search seed from the job seed with a
// SplitMix64-style mix, so islands walk decorrelated streams and the
// derivation is a pure function of (seed, island) — independent of how
// many islands run concurrently or where an island runs. The
// increment constant differs from the one chainSeed uses, so island 0's
// NSGA-II stream is not correlated with chain 0 of a MOSA run on the
// same seed.
func ForkSeed(seed int64, island int) int64 {
	z := uint64(seed) + (uint64(island)+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Clone deep-copies the snapshot. The island coordinator mutates cloned
// snapshots (migrant injection) while keeping the original as the
// restart point of a crashed round, so sharing backing storage would
// silently corrupt failover.
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return nil
	}
	out := *s
	out.Population = clonePoints(s.Population)
	out.Ranks = append([]int(nil), s.Ranks...)
	out.Crowd = append(InfFloats(nil), s.Crowd...)
	out.Archive = clonePoints(s.Archive)
	if s.Chains != nil {
		out.Chains = make([]ChainSnap, len(s.Chains))
		for i, ch := range s.Chains {
			out.Chains[i] = ChainSnap{
				RNG:     ch.RNG,
				Cur:     ch.Cur.clone(),
				CurE:    ch.CurE,
				Temp:    ch.Temp,
				Iter:    ch.Iter,
				Archive: clonePoints(ch.Archive),
			}
		}
	}
	return &out
}

// MigrantsOut selects up to k migrants from the snapshot's current
// front, stride-sampled across the whole front (the same shape
// Options.validSeeds uses, and for the same reason: a front is ordered
// along the tradeoff curve, and a prefix would export only one end of
// it). The result deep-copies the snapshot's storage and is a pure
// function of (snap, k), so an island exports the same migrants wherever
// it ran. Snapshots of algorithms that take no injected points (or an
// empty front, or k <= 0) yield nil.
func MigrantsOut(snap *Snapshot, k int) []Point {
	if snap == nil || k <= 0 {
		return nil
	}
	a := lookup(snap.Algorithm)
	if a.front == nil {
		return nil
	}
	front := a.front(snap)
	if len(front) == 0 {
		return nil
	}
	k = min(k, len(front))
	out := make([]Point, k)
	for i := range out {
		out[i] = front[i*len(front)/k].clone()
	}
	return out
}

// InjectMigrants returns a deep copy of snap with migrants folded into
// the algorithm's state, leaving snap itself untouched. Migrants that do
// not index the space, are infeasible, carry a mismatched objective
// count, or duplicate a point already present are skipped, never an
// error: islands exploring the same region mostly exchange duplicates.
// Injection draws no randomness, so the result is a pure function of
// (snap, migrants, space).
func InjectMigrants(space *Space, snap *Snapshot, migrants []Point) (*Snapshot, error) {
	if snap == nil {
		return nil, fmt.Errorf("dse: inject migrants into nil snapshot")
	}
	a := lookup(snap.Algorithm)
	if a.inject == nil {
		return nil, fmt.Errorf("dse: algorithm %q does not support migration", snap.Algorithm)
	}
	out := snap.Clone()
	accepted := acceptMigrants(space, snap, a.front, migrants)
	if len(accepted) == 0 {
		return out, nil
	}
	if err := a.inject(out, accepted); err != nil {
		return nil, err
	}
	return out, nil
}

// injectPopulation is NSGA-II's injection: migrants replace the worst
// population members (the inverse of environmental selection's order),
// at most half the population so immigration never displaces the whole
// gene pool; the population is re-ranked and migrants join the archive.
// out is a deep copy the caller owns, and accepted holds fresh copies.
func injectPopulation(out *Snapshot, accepted []Point) error {
	n := len(out.Population)
	if n == 0 {
		return fmt.Errorf("dse: nsga2 snapshot has no population to inject into")
	}
	accepted = accepted[:min(len(accepted), n/2)]
	worst := worstIndices(out.Ranks, out.Crowd)
	for i, m := range accepted {
		out.Population[worst[i]] = m
	}
	var ws sortWorkspace
	ranks, crowd := ws.rankAndCrowd(out.Population)
	out.Ranks = append([]int(nil), ranks...)
	out.Crowd = append(InfFloats(nil), crowd...)
	out.Archive = archivePoints(out.Archive, accepted)
	return nil
}

// injectChains is MOSA's injection: migrants join every chain's guiding
// archive; chain positions, temperatures and RNG states are untouched.
func injectChains(out *Snapshot, accepted []Point) error {
	for i := range out.Chains {
		out.Chains[i].Archive = archivePoints(out.Chains[i].Archive, accepted)
	}
	return nil
}

// acceptMigrants filters migrants down to feasible, space-valid points
// with as many objectives as the snapshot's front (front is the table
// entry's), dropping duplicates of the snapshot's population (NSGA-II)
// and among the migrants themselves, preserving first-seen order.
func acceptMigrants(space *Space, snap *Snapshot, front func(*Snapshot) []Point, migrants []Point) []Point {
	if len(migrants) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(migrants)+len(snap.Population))
	for _, sp := range snap.Population {
		seen[sp.Config.Key()] = true
	}
	objs := -1 // no front yet: any count goes
	if f := front(snap); len(f) > 0 {
		objs = len(f[0].Objs)
	}
	out := make([]Point, 0, len(migrants))
	for _, m := range migrants {
		if !m.Feasible || len(m.Objs) == 0 || !space.Valid(m.Config) {
			continue
		}
		if objs >= 0 && len(m.Objs) != objs {
			continue
		}
		k := m.Config.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, m.clone())
	}
	return out
}

// worstIndices orders population indices worst-first by the carried
// ranking: rank descending, crowding ascending, index descending — a
// total order, so replacement targets are deterministic even among
// exact (rank, crowding) ties.
func worstIndices(ranks []int, crowd []float64) []int {
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if ranks[a] != ranks[b] {
			return ranks[a] > ranks[b]
		}
		if crowd[a] != crowd[b] {
			return crowd[a] < crowd[b]
		}
		return a > b
	})
	return idx
}
