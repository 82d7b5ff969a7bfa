package core

import (
	"fmt"
	"math"

	"wsndse/internal/numeric"
	"wsndse/internal/units"
)

// Network is a star-topology WBSN: a set of nodes sharing one MAC, plus
// the balance weight ϑ of the network-level metrics (Eq. 8).
type Network struct {
	Nodes []*Node
	MAC   MAC
	// NodeMACs optionally gives node i its own view of the shared MAC —
	// e.g. a per-node payload profile in a heterogeneous star. A nil
	// slice (or nil entry) falls back to MAC. Views must share the base
	// MAC's channel geometry: quantum, capacity and control time come
	// from MAC; per-node Ω/Ψ/T_tx and delay bounds come from the view.
	NodeMACs []MAC
	// Theta is ϑ: how strongly imbalance between nodes is penalized in
	// the combined metrics. Zero reduces Eq. 8 to the plain mean.
	Theta float64
}

// macFor resolves node i's MAC view.
func (net *Network) macFor(i int) MAC {
	if i < len(net.NodeMACs) && net.NodeMACs[i] != nil {
		return net.NodeMACs[i]
	}
	return net.MAC
}

// Evaluation is the complete system-level result for one configuration:
// everything the DSE needs, produced in one pass. An Evaluation doubles as
// the scratch object of EvaluateInto: the slices (including the
// Assignment's) are reused across calls, so a steady-state evaluation loop
// performs no heap allocations.
type Evaluation struct {
	// PerNode breakdowns, in node order.
	PerNode []EnergyBreakdown
	// PerNodeQuality is each node's loss-of-quality e(φ_in, χ_node)
	// (PRD % for the case-study compressors).
	PerNodeQuality []float64
	// PerNodeDelay is each node's worst-case data delay in seconds
	// (NaN when the MAC provides no delay bound).
	PerNodeDelay []float64
	// Assignment is the Eq. 1–2 solution underlying the evaluation.
	Assignment *Assignment

	// Energy is E_net (Eq. 8) in watts; Quality and Delay apply the
	// same mean-plus-ϑ·stddev combinator to the per-node quality and
	// delay vectors.
	Energy  units.Watts
	Quality float64
	Delay   units.Seconds

	// Reused intermediates: the per-node streams and the per-node totals
	// handed to the Eq. 8 combinator.
	phiIn    []units.BytesPerSecond
	phiOut   []units.BytesPerSecond
	energies []float64
}

// Combine is Eq. 8's combinator: mean(values) + theta·sampleStdDev(values).
// The paper defines E_net this way and applies the same form to the
// application quality metric; it rewards balanced networks where no node
// is starved or disproportionately drained. The mean and dispersion come
// from the fused single-pass numeric.MeanStdDev.
func Combine(values []float64, theta float64) float64 {
	mean, sd := numeric.MeanStdDev(values)
	return combine(mean, sd, theta)
}

// CombineMoments is Combine over the values added to a, in the order
// they were added.
func CombineMoments(a numeric.Moments, theta float64) float64 {
	mean, sd := a.MeanStdDev()
	return combine(mean, sd, theta)
}

func combine(mean, sd, theta float64) float64 { return mean + theta*sd }

// scratch returns s resized to n elements, reusing its backing array when
// the capacity suffices. Retained elements are stale; callers overwrite
// every slot.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Evaluate runs the full model: assignment (Eqs. 1–2), per-node energies
// (Eqs. 3–7), delay bounds (Eq. 9 for the 802.15.4 MAC) and the combined
// network metrics (Eq. 8). Infeasible configurations yield an
// InfeasibleError.
func (net *Network) Evaluate() (*Evaluation, error) {
	ev := &Evaluation{}
	if err := net.EvaluateInto(ev); err != nil {
		return nil, err
	}
	return ev, nil
}

// validateShape checks the structural preconditions shared by the
// evaluation entry points.
func (net *Network) validateShape() error {
	if len(net.Nodes) == 0 {
		return fmt.Errorf("core: Evaluate: network has no nodes")
	}
	if net.MAC == nil {
		return fmt.Errorf("core: Evaluate: network has no MAC")
	}
	if net.Theta < 0 {
		return fmt.Errorf("core: Evaluate: negative balance weight ϑ=%g", net.Theta)
	}
	if len(net.NodeMACs) != 0 && len(net.NodeMACs) != len(net.Nodes) {
		return fmt.Errorf("core: Evaluate: %d MAC views for %d nodes", len(net.NodeMACs), len(net.Nodes))
	}
	return nil
}

// EvaluateInto is Evaluate with caller-owned scratch: it writes the result
// into ev, reusing ev's slices (and its Assignment) across calls, so a
// steady-state evaluation loop performs zero heap allocations after the
// first call. On error ev's contents are unspecified. The numbers are
// bit-identical to Evaluate's.
func (net *Network) EvaluateInto(ev *Evaluation) error {
	if err := net.validateShape(); err != nil {
		return err
	}
	n := len(net.Nodes)
	ev.phiIn = scratch(ev.phiIn, n)
	ev.phiOut = scratch(ev.phiOut, n)
	ev.PerNode = scratch(ev.PerNode, n)
	ev.PerNodeQuality = scratch(ev.PerNodeQuality, n)
	ev.PerNodeDelay = scratch(ev.PerNodeDelay, n)
	ev.energies = scratch(ev.energies, n)
	for i, node := range net.Nodes {
		phiIn := node.InputRate()
		ev.phiIn[i] = phiIn
		ev.phiOut[i] = node.App.OutputRate(phiIn)
		ev.PerNodeQuality[i] = node.App.Quality(phiIn)
	}
	if ev.Assignment == nil {
		ev.Assignment = &Assignment{}
	}
	if err := AssignHeteroInto(ev.Assignment, net.MAC, net.NodeMACs, ev.phiOut); err != nil {
		return err
	}

	for i, node := range net.Nodes {
		eb, err := node.energy(net.macFor(i), ev.phiIn[i], ev.phiOut[i])
		if err != nil {
			return err
		}
		ev.PerNode[i] = eb
		ev.energies[i] = float64(eb.Total)
	}

	// Each node's bound comes from its own MAC view (a per-node payload
	// profile changes the 2·T_svc term of Eq. 9); the bound is reported
	// only when every view can provide one.
	allBounded := true
	for i := range net.Nodes {
		if db, ok := net.macFor(i).(DelayBound); ok {
			ev.PerNodeDelay[i] = float64(db.WorstCaseDelay(ev.Assignment.DeltaTx, i))
		} else {
			ev.PerNodeDelay[i] = math.NaN()
			allBounded = false
		}
	}
	if allBounded {
		ev.Delay = units.Seconds(Combine(ev.PerNodeDelay, net.Theta))
	} else {
		ev.Delay = units.Seconds(math.NaN())
	}

	ev.Energy = units.Watts(Combine(ev.energies, net.Theta))
	ev.Quality = Combine(ev.PerNodeQuality, net.Theta)
	return nil
}

// Validate checks all nodes and the MAC wiring without evaluating.
func (net *Network) Validate() error {
	if len(net.Nodes) == 0 {
		return fmt.Errorf("core: network has no nodes")
	}
	if net.MAC == nil {
		return fmt.Errorf("core: network has no MAC")
	}
	if len(net.NodeMACs) != 0 && len(net.NodeMACs) != len(net.Nodes) {
		return fmt.Errorf("core: %d MAC views for %d nodes", len(net.NodeMACs), len(net.Nodes))
	}
	for _, n := range net.Nodes {
		if err := n.Validate(); err != nil {
			return err
		}
	}
	return nil
}
