package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// SnapshotVersion is the checkpoint format version. Snapshots carry it so
// a service can refuse to resume from a format it no longer writes.
const SnapshotVersion = 1

// ChainSnap is the complete state of one MOSA annealing chain at a segment
// boundary: its private RNG, current point and energy, temperature,
// iterations completed, and guiding archive.
type ChainSnap struct {
	RNG     uint64  `json:"rng"`
	Cur     Point   `json:"cur"`
	CurE    float64 `json:"cur_e"`
	Temp    float64 `json:"temp"`
	Iter    int     `json:"iter"`
	Archive []Point `json:"archive,omitempty"`
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
	Population []Point     `json:"population,omitempty"`
	Ranks      []int       `json:"ranks,omitempty"`
	Crowd      InfFloats   `json:"crowd,omitempty"`
	Archive    []Point     `json:"archive,omitempty"`
	Chains     []ChainSnap `json:"chains,omitempty"`
	Next       int         `json:"next,omitempty"`
	Evaluated  int         `json:"evaluated"`
	Infeasible int         `json:"infeasible"`
}

// Validate checks the snapshot against the run about to resume from it,
// with the checks that need no run configuration: no cursor (Step, Next,
// a chain's Iter) may be negative, or the run would overrun its budget;
// Ranks and Crowd must cover the population; and every point must pass
// Point.Validate with objs, the evaluator's objective count (0 skips
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
	check := func(kind string, sp Point) error {
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
func (p Point) Validate(space *Space, objs int) error {
	if genes := len(space.Params); len(p.Config) != genes {
		return fmt.Errorf("point has %d genes, space has %d", len(p.Config), genes)
	}
	if !space.Valid(p.Config) {
		return fmt.Errorf("point %v does not index the space", p.Config)
	}
	if !p.Feasible && len(p.Objs) > 0 {
		return fmt.Errorf("point is infeasible but carries %d objectives", len(p.Objs))
	}
	if objs > 0 && p.Feasible && len(p.Objs) != objs {
		return fmt.Errorf("point has %d objectives, evaluator has %d", len(p.Objs), objs)
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
// from silently wrong state. EncodeSnapshotFile writes its JSON form by
// hand; DecodeSnapshotFile reads it through this type.
type snapshotEnvelope struct {
	Version  int             `json:"version"`
	SHA256   string          `json:"sha256"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// EncodeSnapshotFile serializes snap into its durable envelope form:
// {"version":1,"sha256":"...","snapshot":{...}}. It appends the header,
// the checksum and the snapshot's bytes instead of marshalling a
// snapshotEnvelope, which would scan and compact those bytes a second
// time; json.Marshal's output is already compact and escaped, so the
// bytes are the same.
func EncodeSnapshotFile(snap *Snapshot) ([]byte, error) {
	raw, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	out := make([]byte, 0, len(raw)+128) // 128 holds the rest of the envelope
	out = append(out, `{"version":`...)
	out = strconv.AppendInt(out, SnapshotVersion, 10)
	out = append(out, `,"sha256":"`...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, `","snapshot":`...)
	out = append(out, raw...)
	return append(out, '}'), nil
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

// restoreArchive adds copies of snapshot points to arch as one batch.
// Restoring a snapshot's archive into an empty Archive rebuilds it
// bit-identically: the stored set is mutually non-dominated and insertion
// order never changes the archived set.
func restoreArchive(arch *Archive, ps []Point) {
	arch.AddBatch(clonePoints(ps))
}
