package service

import (
	"fmt"
	"strconv"

	"wsndse/internal/dse"
	"wsndse/internal/scenario/family"
)

// Warm-start modes on Spec.WarmStart. The zero value is off, so every
// pre-warm-start spec keeps its exact behavior (and its golden front).
const (
	WarmStartOff  = "off"
	WarmStartAuto = "auto"
)

// warmStartVersion parses an explicit-version warm start ("17" or
// "v17"). ok is false for the named modes and for malformed values.
func warmStartVersion(ws string) (int, bool) {
	if ws == "" || ws == WarmStartOff || ws == WarmStartAuto {
		return 0, false
	}
	raw := ws
	if raw[0] == 'v' {
		raw = raw[1:]
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 1 {
		return 0, false
	}
	return v, true
}

// warmStartRequested reports whether ws asks for any seeding at all —
// the gate for combinations (resume_job, island jobs) that cannot honor
// a warm start and must reject it rather than silently run cold.
func warmStartRequested(ws string) bool {
	return ws != "" && ws != WarmStartOff
}

// validWarmStart reports whether ws is a well-formed Spec.WarmStart
// value: empty, off, auto, or an explicit version.
func validWarmStart(ws string) bool {
	if ws == "" || ws == WarmStartOff || ws == WarmStartAuto {
		return true
	}
	_, ok := warmStartVersion(ws)
	return ok
}

// WarmStartInfo records how a job's initial population was seeded — the
// part of a warm-started run that is not reproducible from the Spec
// alone, so it is echoed on JobInfo for observability and asserted by
// the restart smoke tests.
type WarmStartInfo struct {
	// Mode is the resolved mode: "auto" or "version".
	Mode string `json:"mode"`
	// Sources are the store versions whose fronts contributed seed
	// points, exact match first, then near-miss transfers newest-first.
	Sources []int `json:"sources,omitempty"`
	// Exact reports whether one of the sources was an exact content-key
	// match (same scenario fingerprint, objectives and algorithm).
	Exact bool `json:"exact"`
	// SeedPoints is how many decision vectors were handed to the search
	// (after space-validity filtering and deduplication).
	SeedPoints int `json:"seed_points"`
}

// warmStartMaxSources caps how many near-miss fronts contribute seeds:
// past a few siblings the transferred points crowd out random diversity
// without adding information.
const warmStartMaxSources = 4

// warmStartMaxSeeds caps the total seed list handed to the search; the
// algorithms additionally cap at their own population/chain sizes.
const warmStartMaxSeeds = 256

// ResultLookup abstracts where prior results come from, so warm-start
// resolution runs identically against the in-process Store (the
// Manager, wsn-explore -warm-start <dir>) and the HTTP API via Client
// (wsn-explore -warm-start <url>).
type ResultLookup interface {
	// LookupResult returns the result at an exact version.
	LookupResult(version int) (StoredResult, bool)
	// QueryResults returns matching results, newest first.
	QueryResults(q ResultQuery) ([]StoredResult, error)
}

// LookupResult implements ResultLookup on the Store.
func (s *Store) LookupResult(version int) (StoredResult, bool) { return s.Get(version) }

// QueryResults implements ResultLookup on the Store.
func (s *Store) QueryResults(q ResultQuery) ([]StoredResult, error) {
	page, _ := s.Query(q)
	return page, nil
}

// ResolveWarmStart turns a Spec.WarmStart directive into the seed
// configurations for a search over space, consulting src for prior
// fronts.
//
// Mode "auto" looks up the exact content key (fingerprint, objectives,
// algorithm) first; whether or not it hits, near-miss fronts — same
// family, same algorithm and objectives, different member content — are
// appended newest-first, because sibling members of a sweep (the
// chipset-sweep workload: one ward re-explored across near-identical
// platforms) have fronts whose decision vectors transfer. An explicit
// version uses exactly that front. Decision vectors that do not index
// the target space (a sibling with a different node count) are dropped
// by the search's own validity filter; duplicates likewise.
//
// Resolution degrades, never fails, on an empty store: a nil info with
// no seeds means "run cold". An explicit version that is missing (or
// evicted since submit-time validation) is an error — the caller asked
// for specific provenance the store cannot provide.
func ResolveWarmStart(src ResultLookup, warmStart, fingerprint string, objectives []string, algorithm, scenarioName string, space *dse.Space) ([]dse.Config, *WarmStartInfo, error) {
	if warmStart == "" || warmStart == WarmStartOff {
		return nil, nil, nil
	}
	key := ResultKey(fingerprint, objectives, algorithm)
	if v, ok := warmStartVersion(warmStart); ok {
		r, ok := src.LookupResult(v)
		if !ok {
			return nil, nil, fmt.Errorf("service: warm-start version %d is not in the result store", v)
		}
		seeds := appendFrontConfigs(nil, r, space, nil)
		return seeds, &WarmStartInfo{
			Mode:       "version",
			Sources:    []int{r.Version},
			Exact:      r.Key == key,
			SeedPoints: len(seeds),
		}, nil
	}
	if warmStart != WarmStartAuto {
		return nil, nil, fmt.Errorf("service: malformed warm_start %q (want off|auto|<version>)", warmStart)
	}

	info := &WarmStartInfo{Mode: WarmStartAuto}
	var seeds []dse.Config
	seen := map[string]bool{}
	add := func(r StoredResult) {
		if len(info.Sources) >= warmStartMaxSources || len(seeds) >= warmStartMaxSeeds {
			return
		}
		before := len(seeds)
		seeds = appendFrontConfigs(seeds, r, space, seen)
		if len(seeds) > before {
			info.Sources = append(info.Sources, r.Version)
		}
	}
	exact, err := src.QueryResults(ResultQuery{Key: key, Limit: 1})
	if err != nil {
		return nil, nil, err
	}
	if len(exact) == 1 {
		info.Exact = true
		add(exact[0])
	}
	if fam, ok := family.FamilyOf(scenarioName); ok {
		near, err := src.QueryResults(ResultQuery{Family: fam, Algorithm: algorithm, Limit: 2 * warmStartMaxSources})
		if err != nil {
			return nil, nil, err
		}
		seenFp := map[string]bool{fingerprint: true}
		for _, r := range near {
			// One source per distinct sibling content, the freshest; the
			// exact key (and re-runs of this very scenario) are covered
			// above.
			if r.Key == key || seenFp[r.Fingerprint] || !sameObjectives(r.Objectives, objectives) {
				continue
			}
			seenFp[r.Fingerprint] = true
			add(r)
		}
	}
	if len(seeds) == 0 {
		return nil, nil, nil // cold store: run unseeded, report nothing
	}
	info.SeedPoints = len(seeds)
	return seeds, info, nil
}

// appendFrontConfigs appends r's valid, unseen front decision vectors to
// dst (seen tracks duplicates across calls; nil allocates a private
// set), capping the grown list at warmStartMaxSeeds.
func appendFrontConfigs(dst []dse.Config, r StoredResult, space *dse.Space, seen map[string]bool) []dse.Config {
	if seen == nil {
		seen = map[string]bool{}
	}
	for _, fp := range r.Front {
		c := dse.Config(fp.Config)
		if !space.Valid(c) {
			continue
		}
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		dst = append(dst, c.Clone())
		if len(dst) >= warmStartMaxSeeds {
			break
		}
	}
	return dst
}

// sameObjectives reports element-wise equality of objective name lists.
func sameObjectives(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
