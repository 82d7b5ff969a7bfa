// Package family turns the scenario registry from a hand-curated list
// into a generated population. A Family is a declarative, parameterized
// scenario generator: named axes (node count, platform mix, payload
// profile, traffic model, topology schedule, …) whose cartesian product
// enumerates members, and a Build function that materializes one member
// from a choice of axis values. Enabling a family registers every member
// through the ordinary scenario.Register/Lookup/List registry, so the
// CLIs, the exploration service and the experiments harness consume
// generated workloads exactly like hand-written ones.
//
// Two contracts make generated scenarios trustworthy rather than merely
// numerous:
//
//   - Feasibility: Enable screens every member before registration — a
//     scenario only enters the registry if the analytical model accepts
//     at least one configuration of it (no member ever registers with an
//     infeasible superframe allocation). This is the GTS 7-slot cliff
//     check generalized from one sweep to the whole population.
//   - Fingerprints: every member carries the scenario content fingerprint
//     (scenario.Scenario.Fingerprint), so a member can be reproduced, or
//     recognized across processes, from its hash alone.
//
// The same machinery doubles as a correctness engine: the
// internal/scenario/xcheck harness evaluates generated members through
// both the compiled analytical model and the packet-level simulator and
// fails on disagreement beyond tolerance, and FromBytes decodes fuzz
// bytes into family coordinates so `go test -fuzz` explores the member
// space adversarially.
//
// Defining a family is declarative — axes plus a Build function:
//
//	family.MustRegister(family.Family{
//		Name:        "my-ward",
//		Description: "ward sized by node count and frame profile",
//		Axes: []family.Axis{
//			{Name: "nodes", Values: []string{"n3", "n4", "n5"}},
//			{Name: "payload", Values: []string{"short", "long"}},
//		},
//		Build: func(v family.Values) (scenario.Scenario, error) {
//			// materialize the member at coordinate v; Name is
//			// stamped by the framework ("my-ward/n4-long").
//		},
//	})
//	added, err := family.Enable("my-ward") // screen + register members
//
// Axis values are short kebab-safe tokens because they become member
// names; Build must be a pure function of its coordinate (derive seeds
// from the member name, not a counter), so enumeration order, fuzzing and
// re-registration all agree on what each member is.
package family

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"wsndse/internal/casestudy"
	"wsndse/internal/scenario"
)

// Axis is one named dimension of a family: the generator enumerates the
// cartesian product of all axis values. Values are short kebab-case
// tokens; they become part of member scenario names.
type Axis struct {
	Name   string
	Values []string
}

// Values is one member's coordinate: a choice of value per axis.
type Values map[string]string

// Family is a declarative scenario generator.
type Family struct {
	// Name prefixes every member scenario ("<family>/<values…>").
	Name string
	// Description is one sentence for listings.
	Description string
	// Axes declares the explorable dimensions, in naming order.
	Axes []Axis
	// Build materializes the member at the given coordinate. The
	// returned scenario's Name is overwritten with the canonical member
	// name; everything else is Build's responsibility.
	Build func(v Values) (scenario.Scenario, error)
}

func (f Family) validate() error {
	if f.Name == "" {
		return fmt.Errorf("family: empty name")
	}
	if strings.Contains(f.Name, "/") {
		return fmt.Errorf("family %q: name may not contain '/'", f.Name)
	}
	if f.Build == nil {
		return fmt.Errorf("family %q: nil Build", f.Name)
	}
	if len(f.Axes) == 0 {
		return fmt.Errorf("family %q: no axes", f.Name)
	}
	seen := map[string]bool{}
	for _, ax := range f.Axes {
		if ax.Name == "" || len(ax.Values) == 0 {
			return fmt.Errorf("family %q: axis %q has no values", f.Name, ax.Name)
		}
		if seen[ax.Name] {
			return fmt.Errorf("family %q: duplicate axis %q", f.Name, ax.Name)
		}
		seen[ax.Name] = true
		vals := map[string]bool{}
		for _, v := range ax.Values {
			if v == "" || strings.ContainsAny(v, "/ ") {
				return fmt.Errorf("family %q: axis %q has malformed value %q", f.Name, ax.Name, v)
			}
			if vals[v] {
				return fmt.Errorf("family %q: axis %q has duplicate value %q", f.Name, ax.Name, v)
			}
			vals[v] = true
		}
	}
	return nil
}

// Size returns the member count (the product of axis cardinalities).
func (f Family) Size() int {
	n := 1
	for _, ax := range f.Axes {
		n *= len(ax.Values)
	}
	return n
}

// Members enumerates every coordinate in deterministic order: the last
// axis varies fastest, like a row-major grid walk.
func (f Family) Members() []Values {
	out := make([]Values, 0, f.Size())
	idx := make([]int, len(f.Axes))
	for {
		v := make(Values, len(f.Axes))
		for i, ax := range f.Axes {
			v[ax.Name] = ax.Values[idx[i]]
		}
		out = append(out, v)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(f.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// MemberName is the canonical registry name of the member at v:
// "<family>/<v1>-<v2>-…" with values in axis order.
func (f Family) MemberName(v Values) string {
	parts := make([]string, len(f.Axes))
	for i, ax := range f.Axes {
		parts[i] = v[ax.Name]
	}
	return f.Name + "/" + strings.Join(parts, "-")
}

// Scenario materializes the member at v: it checks the coordinate against
// the axes, runs Build, stamps the canonical member name and a default
// description, and validates the result.
func (f Family) Scenario(v Values) (scenario.Scenario, error) {
	if len(v) != len(f.Axes) {
		return scenario.Scenario{}, fmt.Errorf("family %q: coordinate has %d of %d axes", f.Name, len(v), len(f.Axes))
	}
	for _, ax := range f.Axes {
		chosen, ok := v[ax.Name]
		if !ok {
			return scenario.Scenario{}, fmt.Errorf("family %q: coordinate misses axis %q", f.Name, ax.Name)
		}
		valid := false
		for _, val := range ax.Values {
			if val == chosen {
				valid = true
				break
			}
		}
		if !valid {
			return scenario.Scenario{}, fmt.Errorf("family %q: axis %q has no value %q", f.Name, ax.Name, chosen)
		}
	}
	s, err := f.Build(v)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("family %q: building %s: %w", f.Name, f.MemberName(v), err)
	}
	s.Name = f.MemberName(v)
	if s.Description == "" {
		s.Description = fmt.Sprintf("%s member of the %s family", f.MemberName(v), f.Name)
	}
	if err := s.Validate(); err != nil {
		return scenario.Scenario{}, fmt.Errorf("family %q: member %s: %w", f.Name, s.Name, err)
	}
	return s, nil
}

// memberSeed derives a deterministic nonzero simulation seed from the
// member name, so every generated scenario gets its own stable channel
// seed without any global counter.
func memberSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := int64(h.Sum64() & 0x7fffffffffffffff)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// The family registry mirrors the scenario registry: process-wide,
// concurrency-safe, duplicate names rejected.
var registry = struct {
	mu       sync.RWMutex
	byName   map[string]Family
	enabled  map[string]bool // families whose members are registered
	enabling sync.Mutex      // serializes Enable's screen-and-register walk
}{byName: map[string]Family{}, enabled: map[string]bool{}}

// Register adds a family to the family registry (not yet its members —
// see Enable).
func Register(f Family) error {
	if err := f.validate(); err != nil {
		return err
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[f.Name]; dup {
		return fmt.Errorf("family: %q already registered", f.Name)
	}
	registry.byName[f.Name] = f
	return nil
}

// MustRegister is Register for init-time use.
func MustRegister(f Family) {
	if err := Register(f); err != nil {
		panic(err)
	}
}

// Lookup returns the named family.
func Lookup(name string) (Family, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	f, ok := registry.byName[name]
	return f, ok
}

// List returns the registered families sorted by name.
func List() []Family {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Family, 0, len(registry.byName))
	for _, f := range registry.byName {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registered family names.
func Names() []string {
	fams := List()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// Enable materializes every member of the named family, screens it for
// feasibility, and registers it in the scenario registry. It returns the
// number of members newly registered (zero when the family was already
// enabled — Enable is idempotent and safe for concurrent use).
//
// The feasibility screen is the registration invariant of the package: a
// member whose design space contains no configuration the analytical
// model accepts (e.g. a superframe allocation that cannot fit the GTS
// budget at any χ_mac point) aborts Enable with an error instead of
// entering the registry.
func Enable(name string) (int, error) {
	f, ok := Lookup(name)
	if !ok {
		return 0, fmt.Errorf("family: unknown family %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	registry.enabling.Lock()
	defer registry.enabling.Unlock()
	registry.mu.RLock()
	done := registry.enabled[name]
	registry.mu.RUnlock()
	if done {
		return 0, nil
	}

	cal := casestudy.DefaultCalibration()
	added := 0
	for _, v := range f.Members() {
		s, err := f.Scenario(v)
		if err != nil {
			return added, err
		}
		if fp, ok := scenario.FingerprintOf(s.Name); ok {
			// A test (or a previous partial Enable) registered this member
			// already; the fingerprint tells identity from collision.
			if fp != s.Fingerprint() {
				return added, fmt.Errorf("family %q: member %s already registered with different content", name, s.Name)
			}
			continue
		}
		p, err := scenario.NewProblem(s, cal)
		if err != nil {
			return added, err
		}
		if _, err := p.FeasibleParams(); err != nil {
			return added, fmt.Errorf("family %q: member %s has no feasible configuration: %w", name, s.Name, err)
		}
		if err := scenario.Register(s); err != nil {
			return added, err
		}
		added++
	}
	registry.mu.Lock()
	registry.enabled[name] = true
	registry.mu.Unlock()
	return added, nil
}

// EnableAll enables every registered family and returns the total number
// of newly registered members.
func EnableAll() (int, error) {
	total := 0
	for _, name := range Names() {
		n, err := Enable(name)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// FamilyOf extracts the family name from a member scenario name
// ("chipset-sweep/telosb-n4-…" → "chipset-sweep"). The second return is
// false for names without a family prefix.
func FamilyOf(scenarioName string) (string, bool) {
	i := strings.IndexByte(scenarioName, '/')
	if i <= 0 {
		return "", false
	}
	return scenarioName[:i], true
}

// FromBytes decodes fuzz bytes into a family coordinate and materializes
// the member: byte 0 picks the family (mod the registered count), byte
// 1+i picks axis i's value (mod its cardinality). Every byte string is a
// valid coordinate, which is what lets `go test -fuzz` walk the member
// space without a rejection loop.
func FromBytes(data []byte) (Family, Values, scenario.Scenario, error) {
	fams := List()
	if len(fams) == 0 {
		return Family{}, nil, scenario.Scenario{}, fmt.Errorf("family: none registered")
	}
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	f := fams[int(at(0))%len(fams)]
	v := make(Values, len(f.Axes))
	for i, ax := range f.Axes {
		v[ax.Name] = ax.Values[int(at(1+i))%len(ax.Values)]
	}
	s, err := f.Scenario(v)
	return f, v, s, err
}
