package core

import (
	"fmt"
	"math"

	"wsndse/internal/units"
)

// Assignment is the solution of the transmission-interval assignment
// problem of §3.2: per-node interval multipliers k^(n) and the resulting
// per-second intervals Δ_tx^(n) = k^(n)·δ satisfying Eq. 1, with Eq. 2's
// budget accounting.
type Assignment struct {
	// K[i] is the integer multiplier k^(i) of the MAC quantum δ.
	K []int
	// DeltaTx[i] = K[i]·δ is node i's transmission interval in seconds
	// of channel time per second.
	DeltaTx []float64
	// Used is Σ DeltaTx.
	Used float64
	// Capacity is the MAC's assignable budget; Used ≤ Capacity.
	Capacity float64
	// ControlTime is the MAC's structural Δ_control component. Eq. 2
	// balances as Used + ControlTime + Idle = 1.
	ControlTime float64
	// Idle is assignable-but-unused channel time (1 − Used −
	// ControlTime); under Eq. 2's accounting it belongs to Δ_control.
	Idle float64
}

// AssignHeteroInto solves Eq. 1 for every node with the minimal integer
// multiplier,
//
//	Δ_tx^(n) = k^(n)·δ ≥ T_tx(φ_out^(n) + Ω(φ_out^(n))),
//
// then verifies the capacity constraint derived from Eq. 2. The φ_out
// values are the nodes' application output rates in B/s.
//
// views[i], when non-nil, is node i's own view of the shared MAC (e.g. a
// per-node payload profile changing T_tx and the quanta floor), while the
// base MAC fixes the channel geometry every node shares — the quantum δ,
// the assignable capacity, and Δ_control. Views must agree with the base
// on the quantum, since every Δ_tx is an integer multiple of the same
// slot. A nil views slice (or nil entries) is a homogeneous star.
//
// It solves the assignment into a, reusing a's K and DeltaTx slices across
// calls so the evaluation hot path allocates nothing; on error a's
// contents are unspecified. It returns an InfeasibleError when the
// demanded channel time exceeds the MAC's capacity, so DSE can treat the
// configuration as constraint-violating rather than erroring out.
func AssignHeteroInto(a *Assignment, base MAC, views []MAC, phiOut []units.BytesPerSecond) error {
	if len(phiOut) == 0 {
		return fmt.Errorf("core: Assign: no nodes")
	}
	if views != nil && len(views) != len(phiOut) {
		return fmt.Errorf("core: Assign: %d MAC views for %d nodes", len(views), len(phiOut))
	}
	delta := base.Quantum()
	if delta <= 0 {
		return fmt.Errorf("core: Assign: MAC %q has non-positive quantum %g", base.Name(), delta)
	}
	capacity := base.Capacity()

	a.K = scratch(a.K, len(phiOut))
	a.DeltaTx = scratch(a.DeltaTx, len(phiOut))
	a.Used = 0
	a.Capacity = capacity
	a.ControlTime = base.ControlTime()
	a.Idle = 0
	for i, phi := range phiOut {
		mac := base
		if views != nil && views[i] != nil {
			mac = views[i]
			if q := mac.Quantum(); math.Abs(q-delta) > 1e-15 {
				return fmt.Errorf("core: Assign: node %d view %q has quantum %g, base %q has %g",
					i, mac.Name(), q, base.Name(), delta)
			}
		}
		if phi < 0 {
			return fmt.Errorf("core: Assign: node %d has negative output rate %g", i, float64(phi))
		}
		need := mac.TxTime(phi)
		if need < 0 {
			return fmt.Errorf("core: Assign: MAC %q returned negative TxTime for %v", mac.Name(), phi)
		}
		k := int(math.Ceil(need/delta - 1e-12)) // tolerate exact multiples
		if k == 0 && phi > 0 {
			k = 1 // a nonzero stream always needs at least one quantum
		}
		if qf, ok := mac.(QuantaFloor); ok {
			if mk := qf.MinQuanta(phi); k < mk {
				k = mk
			}
		}
		a.K[i] = k
		a.DeltaTx[i] = float64(k) * delta
		a.Used += a.DeltaTx[i]
	}
	if a.Used > capacity+1e-12 {
		return &InfeasibleError{Code: CodeCapacity, MAC: base.Name(), Nodes: len(phiOut), Need: a.Used, Capacity: capacity}
	}
	a.Idle = 1 - a.Used - a.ControlTime
	if a.Idle < 0 {
		// Structural control time plus assignments cannot exceed one
		// second; a violation means the MAC's Capacity and
		// ControlTime disagree.
		return fmt.Errorf("core: Assign: MAC %q accounting broken: used %.6f + control %.6f > 1",
			base.Name(), a.Used, a.ControlTime)
	}
	return nil
}
