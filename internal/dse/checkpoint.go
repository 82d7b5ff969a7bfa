package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// SnapshotVersion is the checkpoint format version. Snapshots carry it so
// a service can refuse to resume from a format it no longer writes.
const SnapshotVersion = 1

// SnapPoint is one evaluated point in snapshot form. Objs is empty for
// infeasible points (matching the in-memory representation, where
// constraint violations carry no objective vector).
type SnapPoint struct {
	Config   Config     `json:"config"`
	Objs     Objectives `json:"objs,omitempty"`
	Feasible bool       `json:"feasible"`
}

// snapPoint deep-copies a run-owned point into snapshot form, so the
// snapshot stays valid while the run keeps mutating its buffers.
func snapPoint(p Point) SnapPoint {
	return SnapPoint{Config: p.Config.Clone(), Objs: append(Objectives(nil), p.Objs...), Feasible: p.Feasible}
}

// point rehydrates the snapshot point with fresh backing storage.
func (sp SnapPoint) point() Point {
	return Point{Config: sp.Config.Clone(), Objs: append(Objectives(nil), sp.Objs...), Feasible: sp.Feasible}
}

func snapPoints(ps []Point) []SnapPoint {
	out := make([]SnapPoint, len(ps))
	for i, p := range ps {
		out[i] = snapPoint(p)
	}
	return out
}

func restorePoints(sps []SnapPoint) []Point {
	out := make([]Point, len(sps))
	for i, sp := range sps {
		out[i] = sp.point()
	}
	return out
}

// ChainSnap is the complete state of one MOSA annealing chain at a segment
// boundary: its private RNG, current point and energy, temperature,
// iterations completed, and guiding archive.
type ChainSnap struct {
	RNG     uint64      `json:"rng"`
	Cur     SnapPoint   `json:"cur"`
	CurE    float64     `json:"cur_e"`
	Temp    float64     `json:"temp"`
	Iter    int         `json:"iter"`
	Archive []SnapPoint `json:"archive,omitempty"`
}

// InfFloats is a []float64 whose JSON form round-trips IEEE infinities
// (crowding distances of front-boundary points are +Inf, which
// encoding/json rejects as bare numbers). Infinities encode as the strings
// "+Inf"/"-Inf"; finite values encode as plain numbers.
type InfFloats []float64

// MarshalJSON implements json.Marshaler.
func (f InfFloats) MarshalJSON() ([]byte, error) {
	vals := make([]any, len(f))
	for i, v := range f {
		switch {
		case math.IsInf(v, 1):
			vals[i] = "+Inf"
		case math.IsInf(v, -1):
			vals[i] = "-Inf"
		default:
			vals[i] = v
		}
	}
	return json.Marshal(vals)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *InfFloats) UnmarshalJSON(data []byte) error {
	var vals []any
	if err := json.Unmarshal(data, &vals); err != nil {
		return err
	}
	out := make(InfFloats, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			out[i] = x
		case string:
			switch x {
			case "+Inf":
				out[i] = math.Inf(1)
			case "-Inf":
				out[i] = math.Inf(-1)
			default:
				return fmt.Errorf("dse: InfFloats element %d: unknown sentinel %q", i, x)
			}
		default:
			return fmt.Errorf("dse: InfFloats element %d: unexpected type %T", i, v)
		}
	}
	*f = out
	return nil
}

// Snapshot is a self-contained, JSON-serializable checkpoint of a search
// run, taken at a generation/segment/batch boundary. Resuming from it
// (Options.Resume) replays the uninterrupted run's exact trajectory; see
// Options.Resume for the precise determinism contract. Which fields are
// populated depends on the algorithm:
//
//   - nsga2: RNG, Population, Ranks, Crowd (the survivors' carried union
//     ranking), Archive
//   - mosa: Chains (per-chain RNG/current/temperature/archive)
//   - exhaustive: Next (configurations consumed in enumeration order),
//     Archive
//   - random: RNG, Next (draws consumed), Archive
//
// An exhaustive or random snapshot sits on a batch boundary: Next is
// min(Step × 1024, n), n being the space size or the budget.
//
// Evaluated/Infeasible carry the run's cumulative counters so resumed runs
// report totals, not deltas.
type Snapshot struct {
	Version    int         `json:"version"`
	Algorithm  string      `json:"algorithm"`
	Step       int         `json:"step"`
	RNG        uint64      `json:"rng,omitempty"`
	Population []SnapPoint `json:"population,omitempty"`
	Ranks      []int       `json:"ranks,omitempty"`
	Crowd      InfFloats   `json:"crowd,omitempty"`
	Archive    []SnapPoint `json:"archive,omitempty"`
	Chains     []ChainSnap `json:"chains,omitempty"`
	Next       int         `json:"next,omitempty"`
	Evaluated  int         `json:"evaluated"`
	Infeasible int         `json:"infeasible"`
}

// Validate checks the snapshot against the run about to resume from it,
// with the checks that need no run configuration: no cursor (Step, Next,
// a chain's Iter) may be negative, or the run would overrun its budget;
// Ranks and Crowd must cover the population; and every point must pass
// SnapPoint.Validate with objs, the evaluator's objective count (0 skips
// the count). Search.ValidateResume adds the checks against the
// configuration (population size, chain count, the batch cursor).
func (s *Snapshot) Validate(algo string, space *Space, objs int) error {
	if s == nil {
		return fmt.Errorf("dse: resume from nil snapshot")
	}
	if s.Version != SnapshotVersion {
		return fmt.Errorf("dse: snapshot version %d, this build writes %d", s.Version, SnapshotVersion)
	}
	if s.Algorithm != algo {
		return fmt.Errorf("dse: snapshot is a %s run, cannot resume as %s", s.Algorithm, algo)
	}
	if s.Step < 0 || s.Next < 0 {
		return fmt.Errorf("dse: snapshot cursor is negative (step %d, next %d)", s.Step, s.Next)
	}
	if len(s.Ranks) != len(s.Population) || len(s.Crowd) != len(s.Population) {
		return fmt.Errorf("dse: snapshot ranking covers %d/%d points", min(len(s.Ranks), len(s.Crowd)), len(s.Population))
	}
	check := func(kind string, sp SnapPoint) error {
		if err := sp.Validate(space, objs); err != nil {
			return fmt.Errorf("dse: snapshot %s %w", kind, err)
		}
		return nil
	}
	for _, sp := range s.Population {
		if err := check("population", sp); err != nil {
			return err
		}
	}
	for _, sp := range s.Archive {
		if err := check("archive", sp); err != nil {
			return err
		}
	}
	for _, ch := range s.Chains {
		if ch.Iter < 0 {
			return fmt.Errorf("dse: snapshot chain cursor is negative (iter %d)", ch.Iter)
		}
		if err := check("chain", ch.Cur); err != nil {
			return err
		}
		for _, sp := range ch.Archive {
			if err := check("chain archive", sp); err != nil {
				return err
			}
		}
	}
	return nil
}

// Validate checks that the point indexes space, that an infeasible point
// carries no objectives (as in memory), and, when objs > 0 and the point
// is feasible, that it carries objs objectives (the evaluator's count),
// since the front machinery reads objectives by index. The error starts
// with "point", for the caller to prefix with where the point came from.
func (sp SnapPoint) Validate(space *Space, objs int) error {
	if genes := len(space.Params); len(sp.Config) != genes {
		return fmt.Errorf("point has %d genes, space has %d", len(sp.Config), genes)
	}
	if !space.Valid(sp.Config) {
		return fmt.Errorf("point %v does not index the space", sp.Config)
	}
	if !sp.Feasible && len(sp.Objs) > 0 {
		return fmt.Errorf("point is infeasible but carries %d objectives", len(sp.Objs))
	}
	if objs > 0 && sp.Feasible && len(sp.Objs) != objs {
		return fmt.Errorf("point has %d objectives, evaluator has %d", len(sp.Objs), objs)
	}
	return nil
}

// ErrCorruptSnapshot marks a durable snapshot whose bytes do not match
// their recorded checksum (or do not parse at all) — the signature of a
// write torn by a crash. Callers distinguish it from "no snapshot" with
// errors.Is and fall back to an older checkpoint.
var ErrCorruptSnapshot = errors.New("dse: corrupt snapshot file")

// snapshotEnvelope is the durable on-disk form of a Snapshot: the
// serialized snapshot plus a SHA-256 over exactly those bytes. The
// checksum is what makes crash recovery *detectable* rather than
// best-effort — a checkpoint file torn mid-write (truncated tail,
// interleaved garbage) fails verification instead of resuming a run
// from silently wrong state.
type snapshotEnvelope struct {
	Version  int             `json:"version"`
	SHA256   string          `json:"sha256"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// EncodeSnapshotFile serializes snap into its durable envelope form:
// {"version":1,"sha256":"...","snapshot":{...}}.
func EncodeSnapshotFile(snap *Snapshot) ([]byte, error) {
	raw, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return json.Marshal(snapshotEnvelope{
		Version:  SnapshotVersion,
		SHA256:   hex.EncodeToString(sum[:]),
		Snapshot: raw,
	})
}

// DecodeSnapshotFile parses an envelope produced by EncodeSnapshotFile,
// verifying the checksum before trusting any field of the snapshot.
// Undecodable bytes and checksum mismatches both return an error wrapping
// ErrCorruptSnapshot.
func DecodeSnapshotFile(data []byte) (*Snapshot, error) {
	var env snapshotEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if len(env.Snapshot) == 0 || env.SHA256 == "" {
		return nil, fmt.Errorf("%w: missing snapshot or checksum", ErrCorruptSnapshot)
	}
	sum := sha256.Sum256(env.Snapshot)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, fmt.Errorf("%w: checksum mismatch (torn write?)", ErrCorruptSnapshot)
	}
	snap := &Snapshot{}
	if err := json.Unmarshal(env.Snapshot, snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return snap, nil
}

// restoreArchive adds snapshot points to arch as one batch. Restoring a
// snapshot's archive into an empty Archive rebuilds it bit-identically:
// the stored set is mutually non-dominated and insertion order never
// changes the archived set.
func restoreArchive(arch *Archive, sps []SnapPoint) {
	arch.AddBatch(restorePoints(sps))
}
