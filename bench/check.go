package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"wsndse/internal/dse"
	"wsndse/internal/service"
)

// canonicalFront is the identity-free form of a job's front: everything
// the spec determines, nothing the server assigns (job ID, status, wall
// times). Go's encoder fixes the field order and prints every float64 in
// its shortest round-trip form, so equal fronts encode to equal bytes and
// any bit flip in an objective changes them.
type canonicalFront struct {
	Scenario   string               `json:"scenario"`
	Algorithm  string               `json:"algorithm"`
	Seed       int64                `json:"seed"`
	Evaluated  int                  `json:"evaluated"`
	Infeasible int                  `json:"infeasible"`
	Front      []service.FrontPoint `json:"front"`
}

func canonical(f service.FrontResponse) []byte {
	b, err := json.Marshal(canonicalFront{f.Scenario, f.Algorithm, f.Seed, f.Evaluated, f.Infeasible, f.Front})
	if err != nil {
		panic(err) // plain structs of ints, strings and finite floats always encode
	}
	return b
}

func frontHash(f service.FrontResponse) [32]byte { return sha256.Sum256(canonical(f)) }

// chainDigest folds per-job front hashes, in job order, into one SHA-256
// chain: h₀ = 0, hᵢ₊₁ = SHA-256(hᵢ ‖ frontHashᵢ).
func chainDigest(hashes [][32]byte) string {
	var h [32]byte
	for _, fh := range hashes {
		h = sha256.Sum256(append(h[:], fh[:]...))
	}
	return hex.EncodeToString(h[:])
}

// resultFront converts a direct search result to the wire form the
// server would have returned for spec.
func resultFront(spec service.Spec, res *dse.Result) service.FrontResponse {
	pts := make([]service.FrontPoint, len(res.Front))
	for i, p := range res.Front {
		pts[i] = service.FrontPoint{Config: append([]int(nil), p.Config...), Objs: append([]float64(nil), p.Objs...)}
	}
	return service.FrontResponse{
		Status: service.StatusDone, Scenario: spec.Scenario, Algorithm: spec.Algorithm, Seed: spec.Seed,
		Evaluated: res.Evaluated, Infeasible: res.Infeasible, Front: pts,
	}
}

// checkFront verifies what can be checked of any single front without a
// reference: the job finished, the server echoed the spec's identity, and
// the front is a finite, mutually non-dominated set no larger than the
// feasible evaluations behind it — empty only when every evaluation was
// infeasible, which a tiny search can hit.
func checkFront(spec service.Spec, f service.FrontResponse) error {
	switch {
	case f.Status != service.StatusDone:
		return fmt.Errorf("status %s, want done", f.Status)
	case f.Scenario != spec.Scenario || f.Algorithm != spec.Algorithm || f.Seed != spec.Seed:
		return fmt.Errorf("front is %s/%s seed %d, spec asked %s/%s seed %d",
			f.Scenario, f.Algorithm, f.Seed, spec.Scenario, spec.Algorithm, spec.Seed)
	case f.Evaluated-f.Infeasible < len(f.Front):
		return fmt.Errorf("front of %d points from %d feasible evaluations", len(f.Front), f.Evaluated-f.Infeasible)
	case len(f.Front) == 0 && f.Infeasible != f.Evaluated:
		return fmt.Errorf("empty front although %d of %d evaluations were feasible", f.Evaluated-f.Infeasible, f.Evaluated)
	case len(f.Front) == 0:
		return nil
	}
	genes := len(f.Front[0].Config)
	for i, p := range f.Front {
		if len(p.Objs) != 3 || len(p.Config) != genes {
			return fmt.Errorf("point %d has %d objectives and %d genes", i, len(p.Objs), len(p.Config))
		}
		for _, o := range p.Objs {
			if math.IsNaN(o) || math.IsInf(o, 0) {
				return fmt.Errorf("point %d has non-finite objective %g", i, o)
			}
		}
	}
	for i, p := range f.Front {
		for j, q := range f.Front {
			if i != j && dse.Dominates(q.Objs, p.Objs) {
				return fmt.Errorf("front point %d is dominated by point %d", i, j)
			}
		}
	}
	return nil
}

// digestFile holds the reference digest of each workload at seed 1.
const digestFile = "testdata/digests.json"

// loadDigests reads the reference digests; root is the repository root.
func loadDigests(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "bench", digestFile))
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return m, nil
}
