package scenario

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// The registry is process-wide and safe for concurrent use; built-in
// scenarios register at init, and tests or embedding programs may add
// their own.
var registry = struct {
	mu     sync.RWMutex
	byName map[string]*registered
}{byName: map[string]*registered{}}

// registered is one registry entry. s is the registry's private copy and
// never changes, so its fingerprint, hashed at the first FingerprintOf,
// holds for the life of the process.
type registered struct {
	s       Scenario
	summary Summary
	fpOnce  sync.Once
	fp      string
}

func (r *registered) fingerprint() string {
	r.fpOnce.Do(func() { r.fp = r.s.Fingerprint() })
	return r.fp
}

// Summary is a registered scenario's listing row: its labels and the
// shape of the design space NewProblem builds for it, computed once at
// Register.
type Summary struct {
	Name        string
	Description string
	Stress      string
	Nodes       int
	Genes       int     // len(Problem.Space().Params)
	SpaceSize   float64 // Problem.Space().Size(), bit for bit
}

// summarize computes s's row without building its Problem: the genes
// newProblem lays out (BO, SFO gap, payload, then each node's CR gene if
// it has one and its frequency gene), with the value counts multiplied
// in Space.Size's order, so the float matches it bit for bit.
func summarize(s Scenario) Summary {
	sum := Summary{Name: s.Name, Description: s.Description, Stress: s.Stress, Nodes: len(s.Nodes), Genes: 3}
	size := 1.0
	size *= float64(len(s.BeaconOrders))
	size *= float64(len(s.SFOGaps))
	size *= float64(len(s.Payloads))
	for _, ns := range s.Nodes {
		if ns.explorableCR() {
			sum.Genes++
			size *= float64(len(ns.CRs))
		}
		sum.Genes++
		size *= float64(len(ns.microFreqs()))
	}
	sum.SpaceSize = size
	return sum
}

// Register validates s and adds it to the registry. Duplicate names are an
// error: a scenario is an identity, not a setting to silently overwrite.
func Register(s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[s.Name]; dup {
		return fmt.Errorf("scenario: %q already registered", s.Name)
	}
	c := s.clone()
	registry.byName[s.Name] = &registered{s: c, summary: summarize(c)}
	return nil
}

// MustRegister is Register for init-time use.
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the named scenario. The copy is deep: mutating it (e.g.
// to derive a variant) never touches the registry.
func Lookup(name string) (Scenario, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	r, ok := registry.byName[name]
	if !ok {
		return Scenario{}, false
	}
	return r.s.clone(), true
}

// FingerprintOf returns the named scenario's Fingerprint and whether it
// is registered, without copying the scenario. The registry hashes each
// scenario once, at the first call for it.
func FingerprintOf(name string) (string, bool) {
	registry.mu.RLock()
	r, ok := registry.byName[name]
	registry.mu.RUnlock()
	if !ok {
		return "", false
	}
	return r.fingerprint(), true
}

// List returns every registered scenario sorted by name, so listings and
// sweeps are deterministic. Like Lookup, the copies are deep.
func List() []Scenario {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Scenario, 0, len(registry.byName))
	for _, r := range registry.byName {
		out = append(out, r.s.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Summaries returns every registered scenario's listing row sorted by
// name, as List orders the scenarios.
func Summaries() []Summary {
	registry.mu.RLock()
	out := make([]Summary, 0, len(registry.byName))
	for _, r := range registry.byName {
		out = append(out, r.summary)
	}
	registry.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registered names.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return slices.Sorted(maps.Keys(registry.byName))
}
