package core

import (
	"fmt"
	"math"

	"wsndse/internal/numeric"
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
//
// Its steps are Quantum, Slots per node, Interval and Budget, which a
// compiled evaluator calls too: the two stay bit-identical because each
// formula exists once.
func AssignHeteroInto(a *Assignment, base MAC, views []MAC, phiOut []units.BytesPerSecond) error {
	if len(phiOut) == 0 {
		return fmt.Errorf("core: Assign: no nodes")
	}
	if views != nil && len(views) != len(phiOut) {
		return fmt.Errorf("core: Assign: %d MAC views for %d nodes", len(views), len(phiOut))
	}
	delta, err := Quantum(base)
	if err != nil {
		return err
	}

	a.K = scratch(a.K, len(phiOut))
	a.DeltaTx = scratch(a.DeltaTx, len(phiOut))
	a.Used = 0
	a.Capacity = base.Capacity()
	a.ControlTime = base.ControlTime()
	a.Idle = 0
	for i, phi := range phiOut {
		mac := base
		if views != nil && views[i] != nil {
			mac = views[i]
		}
		k, err := Slots(base, mac, delta, phi, i)
		if err != nil {
			return err
		}
		a.K[i] = k
		a.DeltaTx[i] = Interval(k, delta)
		a.Used += a.DeltaTx[i]
	}
	a.Idle, err = Budget(base, len(phiOut), a.Used, a.Capacity, a.ControlTime)
	return err
}

// Quantum returns base's quantum δ, which Eq. 1 needs positive.
func Quantum(base MAC) (float64, error) {
	delta := base.Quantum()
	if delta <= 0 {
		return 0, fmt.Errorf("core: Assign: MAC %q has non-positive quantum %g", base.Name(), delta)
	}
	return delta, nil
}

// Slots is Eq. 1's step for node i: the smallest multiplier k of the base
// quantum delta with k·δ ≥ T_tx(φ_out + Ω) under the node's MAC view mac
// (base itself for a node without one), at least one quantum for a
// nonzero stream and at least the view's QuantaFloor. It rejects a view
// whose quantum is not delta, a negative rate and a negative T_tx.
func Slots(base, mac MAC, delta float64, phi units.BytesPerSecond, i int) (int, error) {
	if q := mac.Quantum(); math.Abs(q-delta) > 1e-15 {
		return 0, fmt.Errorf("core: Assign: node %d view %q has quantum %g, base %q has %g",
			i, mac.Name(), q, base.Name(), delta)
	}
	if phi < 0 {
		return 0, fmt.Errorf("core: Assign: node %d has negative output rate %g", i, float64(phi))
	}
	need := mac.TxTime(phi)
	if need < 0 {
		return 0, fmt.Errorf("core: Assign: MAC %q returned negative TxTime for %v", mac.Name(), phi)
	}
	k := numeric.CeilCount(need/delta - 1e-12) // tolerate exact multiples
	if k == 0 && phi > 0 {
		k = 1 // a nonzero stream always needs at least one quantum
	}
	if qf, ok := mac.(QuantaFloor); ok {
		if mk := qf.MinQuanta(phi); k < mk {
			k = mk
		}
	}
	return k, nil
}

// Interval is Δ_tx = k·δ. The conversion rounds the product before a sum
// takes it in, so no caller's compilation fuses it into a multiply-add.
func Interval(k int, delta float64) float64 {
	return float64(float64(k) * delta)
}

// Budget is Eq. 2's accounting of an assignment that gives n nodes used
// s/s of base's channel time, with capacity and control its assignable
// budget and structural Δ_control: it returns the idle time
// 1 − used − control, or an InfeasibleError when used exceeds capacity.
func Budget(base MAC, n int, used, capacity, control float64) (float64, error) {
	if used > capacity+1e-12 {
		return 0, &InfeasibleError{Code: CodeCapacity, MAC: base.Name(), Nodes: n, Need: used, Capacity: capacity}
	}
	idle := 1 - used - control
	if idle < 0 {
		// Structural control time plus assignments cannot exceed one
		// second; a violation means the MAC's Capacity and
		// ControlTime disagree.
		return 0, fmt.Errorf("core: Assign: MAC %q accounting broken: used %.6f + control %.6f > 1",
			base.Name(), used, control)
	}
	return idle, nil
}
