package scenario

import (
	"fmt"
	"math"
	"reflect"

	"wsndse/internal/app"
	"wsndse/internal/casestudy"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	ieee "wsndse/internal/ieee802154"
	"wsndse/internal/numeric"
	"wsndse/internal/units"
)

// Compiled is the compiled evaluation pipeline of a scenario. Only Eq. 1's
// capacity sum, Eq. 9's cross-node sums and Eq. 8's combines depend on
// more than one node, so Compile evaluates everything else once, into
// tables:
//
//   - per (BO × SFO gap × payload) grid point: the first error the
//     reference evaluator meets before Eq. 1's per-node step (base MAC,
//     node views, quantum) and the Eq. 9 2·T_svc term of the payload;
//   - per (BO, SFO gap) superframe, which every payload shares: the
//     quantum δ, capacity and Δ_control of Eqs. 1–2, and the Eq. 9
//     constants, with the slot time of each k a feasible node can have;
//   - per distinct node model — a node spec up to its name and its
//     simulator-only fields; ecg-ward has two, DWT and CS — the Eq. 1
//     slot multiplier k per (BO, SFO gap, payload, CR), the Eq. 6 radio
//     power per (BO, payload, CR), which the SFO gap does not change, the
//     Eq. 3–5 sensor + µC + memory power per (CR, f_µC) with whether the
//     §3.3 constraints reject it, and the quality per CR. A node with its
//     own payload has no payload axis.
//
// An evaluation is then table lookups, Σ k·δ with the capacity check,
// Eq. 9 for every node in one pass over the shared slot sum, and the
// three Eq. 8 combines. Every entry and every per-evaluation term comes
// from the core helpers the reference core.Network.EvaluateInto calls
// (Node.LocalEnergy, Node.RadioPower, Quantum, Slots, Interval, Budget,
// GTSMac.DelayTerms), so the compiled evaluator is bit-identical to
// Problem.Evaluator() by construction, errors included: a table entry
// records only that a helper failed, and the error path calls the helper
// again for the node at hand. The tables are written only by Compile, so
// any number of evaluators may read them at once.
type Compiled struct {
	space      *dse.Space
	name       string
	theta      float64
	nGap, nPay int

	frames []superframe // per (BO, SFO gap)
	grid   []gridPoint  // per (BO, SFO gap, payload)
	nodes  []compiledNode
	specs  []NodeSpec // the scenario's nodes, for the error paths
}

// gridPoint is one χ_mac point of the network grid.
type gridPoint struct {
	mac      *core.GTSMac
	err      error
	service2 float64
}

// superframe is what Eqs. 1, 2 and 9 read of a (BO, SFO gap) point. A
// GTS MAC's quantum, capacity, Δ_control, slot and beacon interval depend
// on its superframe alone, so the first payload's MAC gives them.
type superframe struct {
	delta, capacity, control float64
	terms                    core.DelayTerms // Service2 is set per node
	// ownTx[k] is the Eq. 9 slot time of a node with k slots: within the
	// GTS budget every node has at most ieee.MaxGTS.
	ownTx [ieee.MaxGTS + 1]float64
}

// compiledNode is one node's place in the configuration and its model.
type compiledNode struct {
	model  *nodeModel
	crGene int // −1: the node forwards at CR 1
	fGene  int
}

// nodeModel holds the tables of one distinct node model.
type nodeModel struct {
	view    bool // the node has its own payload: k and radio drop the payload axis
	nCR, nF int
	k       []int32      // per (BO, gap, payload, CR); −1 where core.Slots fails
	radio   []float64    // per (BO, payload, CR)
	local   []localTerms // per (CR, f_µC)
	quality []float64    // per CR

	// service2 is a view's own 2·T_svc; views is its (BO × SFO gap) MAC
	// grid, which the error path of a failed k entry reads.
	service2 float64
	views    []core.GTSMacEntry

	// The inputs the error paths call the core helpers with again.
	apps   []app.Application // per CR
	phiIn  units.BytesPerSecond
	phiOut []units.BytesPerSecond // per CR
	freqs  []units.Hertz          // per f_µC index
}

// localTerms is one (CR, f_µC) entry: Node.LocalEnergy's Total, or that it
// failed.
type localTerms struct {
	power float64
	fails bool
}

// Compile builds the tables of the compiled evaluation pipeline. It fails
// when an application cannot be built for a grid CR, or when a node needs
// more GTS slots than an int32 holds, which no superframe could serve;
// χ_mac points whose MAC construction fails are recorded and reported per
// evaluation.
func (p *Problem) Compile() (*Compiled, error) {
	sc := p.Scenario
	n := len(sc.Nodes)
	t := &Compiled{
		space: p.space,
		name:  sc.Name,
		theta: sc.Theta,
		nGap:  len(sc.SFOGaps),
		nPay:  len(sc.Payloads),
		nodes: make([]compiledNode, n),
		specs: sc.Nodes,
	}
	base := core.BuildGTSMacGrid(sc.BeaconOrders, sc.SFOGaps, sc.Payloads, n)

	var keys []NodeSpec
	var models []*nodeModel
	for i, ns := range sc.Nodes {
		key := ns
		key.Name, key.Arrival, key.Link = "", 0, nil
		var m *nodeModel
		for j := range keys {
			if reflect.DeepEqual(keys[j], key) {
				m = models[j]
				break
			}
		}
		if m == nil {
			var err error
			if m, err = p.compileModel(i, base); err != nil {
				return nil, err
			}
			keys, models = append(keys, key), append(models, m)
		}
		t.nodes[i] = compiledNode{model: m, crGene: p.crGene[i], fGene: p.fGene[i]}
	}

	t.grid = make([]gridPoint, len(base))
	for gi, e := range base {
		gp := &t.grid[gi]
		gp.mac, gp.err = e.MAC, e.Err
		for _, nd := range t.nodes {
			if gp.err == nil && nd.model.view {
				gp.err = nd.model.views[gi/t.nPay].Err
			}
		}
		if gp.err == nil {
			_, gp.err = core.Quantum(e.MAC)
		}
		if gp.err == nil {
			gp.service2 = e.MAC.DelayTerms().Service2
		}
	}
	t.frames = make([]superframe, len(base)/t.nPay)
	for vi := range t.frames {
		bm := firstMAC(base[vi*t.nPay : (vi+1)*t.nPay])
		if bm == nil {
			continue
		}
		f := &t.frames[vi]
		f.delta, _ = core.Quantum(bm) // a failure marks every payload's grid point
		f.capacity, f.control = bm.Capacity(), bm.ControlTime()
		f.terms = bm.DelayTerms()
		for k := range f.ownTx {
			f.ownTx[k] = f.terms.SlotTime(core.Interval(k, f.delta))
		}
	}
	return t, nil
}

// compileModel builds the tables of node i's model over the network MAC
// grid base.
func (p *Problem) compileModel(i int, base []core.GTSMacEntry) (*nodeModel, error) {
	sc := p.Scenario
	ns := sc.Nodes[i]
	shell := core.Node{Name: ns.Name, Platform: ns.Platform, SampleFreq: ns.SampleFreq}
	crs := []float64{1} // nodes without a CR gene forward unmodified
	if g := p.crGene[i]; g >= 0 {
		crs = p.space.Params[g].Values
	}
	fVals := p.space.Params[p.fGene[i]].Values
	m := &nodeModel{
		view:    ns.PayloadBytes > 0,
		nCR:     len(crs),
		nF:      len(fVals),
		quality: make([]float64, len(crs)),
		local:   make([]localTerms, len(crs)*len(fVals)),
		apps:    make([]app.Application, len(crs)),
		phiIn:   shell.InputRate(),
		phiOut:  make([]units.BytesPerSecond, len(crs)),
		freqs:   make([]units.Hertz, len(fVals)),
	}
	for j, f := range fVals {
		m.freqs[j] = units.Hertz(f)
	}
	for j, cr := range crs {
		a, err := casestudy.AppFor(p.Cal, ns.Kind, cr)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: Compile: node %s, CR %g: %w", sc.Name, ns.Name, cr, err)
		}
		m.apps[j] = a
		m.phiOut[j] = a.OutputRate(m.phiIn)
		m.quality[j] = a.Quality(m.phiIn)
		shell.App = a
		for fi, f := range m.freqs {
			shell.MicroFreq = f
			eb, err := shell.LocalEnergy(m.phiIn)
			m.local[j*m.nF+fi] = localTerms{power: float64(eb.Total), fails: err != nil}
		}
	}

	nBO, nGap, nPay := len(sc.BeaconOrders), len(sc.SFOGaps), len(sc.Payloads)
	macs := base
	if m.view {
		// The payload axis collapses to the node's own frame size.
		m.views = core.BuildGTSMacGrid(sc.BeaconOrders, sc.SFOGaps, []int{ns.PayloadBytes}, len(sc.Nodes))
		macs, nPay = m.views, 1
	}
	m.k = make([]int32, len(macs)*m.nCR)
	m.radio = make([]float64, nBO*nPay*m.nCR)
	radioDone := make([]bool, nBO*nPay) // per (BO, payload)
	for gi, e := range macs {
		if e.Err != nil {
			continue
		}
		// Slots checks the view against a base MAC of the same
		// superframe; every payload of it has the same quantum.
		bm := e.MAC
		if m.view {
			bm = firstMAC(base[gi*len(sc.Payloads) : (gi+1)*len(sc.Payloads)])
			m.service2 = e.MAC.DelayTerms().Service2
		}
		if bm == nil {
			continue
		}
		delta, err := core.Quantum(bm)
		if err != nil {
			continue
		}
		for j, phi := range m.phiOut {
			k, err := core.Slots(bm, e.MAC, delta, phi, i)
			switch {
			case err != nil:
				k = -1
			case k < 0 || k > math.MaxInt32:
				return nil, fmt.Errorf("scenario %q: Compile: node %s needs %d slots of %v at CR %g",
					sc.Name, ns.Name, k, e.MAC, crs[j])
			}
			m.k[gi*m.nCR+j] = int32(k)
		}
		// Eq. 6 does not depend on the SFO gap: the first gap of a BO
		// whose MAC was built writes the row.
		if r := gi/(nGap*nPay)*nPay + gi%nPay; !radioDone[r] {
			for j, phi := range m.phiOut {
				m.radio[r*m.nCR+j] = float64(shell.RadioPower(e.MAC, phi))
			}
			radioDone[r] = true
		}
	}
	return m, nil
}

// firstMAC returns the first MAC of a grid row that was built, or nil.
func firstMAC(row []core.GTSMacEntry) *core.GTSMac {
	for _, e := range row {
		if e.Err == nil {
			return e.MAC
		}
	}
	return nil
}

// Evaluator returns t, the compiled three-objective evaluator: minimize
// (E_net [W], quality loss, delay_net [s]), bit-identical to
// Problem.Evaluator() but allocation-free in steady state through
// EvaluateInto. An evaluation writes nothing but its own stack and objs,
// so t is safe for concurrent use.
func (t *Compiled) Evaluator() dse.Evaluator { return t }

// NumObjectives implements dse.Evaluator.
func (t *Compiled) NumObjectives() int { return 3 }

// Evaluate implements dse.Evaluator.
func (t *Compiled) Evaluate(c dse.Config) (dse.Objectives, error) {
	objs := make(dse.Objectives, 3)
	if err := t.EvaluateInto(c, objs); err != nil {
		return nil, err
	}
	return objs, nil
}

// Fork implements dse.Forkable: t keeps no scratch, so every batch
// worker shares it.
func (t *Compiled) Fork() dse.Evaluator { return t }

// EvaluateInto implements dse.IntoEvaluator. Errors come in the
// reference evaluator's order: the grid point's MAC and quantum errors,
// then Eq. 1's per-node step in node order, the capacity and accounting
// checks, and last the first node whose local terms fail.
func (t *Compiled) EvaluateInto(c dse.Config, objs dse.Objectives) error {
	if !t.space.Valid(c) {
		return fmt.Errorf("scenario %q: invalid config %v", t.name, c)
	}
	b := c[0]
	vi := b*t.nGap + c[1] // view grid index: the payload axis collapsed
	gi := vi*t.nPay + c[2]
	gp := &t.grid[gi]
	if gp.err != nil {
		return gp.err
	}
	sf := &t.frames[vi]

	// The energies, qualities and Eq. 9 slot times the last pass reads. A
	// network of more than ieee.MaxGTS nodes has no GTS MAC, so its grid
	// point's error returned above.
	var nodeEnergy, nodeQuality, ownTx [ieee.MaxGTS]float64
	var used, totalTx float64
	failed := -1 // first node whose local terms fail
	for i := range t.nodes {
		nd := &t.nodes[i]
		m := nd.model
		cr := 0
		if nd.crGene >= 0 {
			cr = c[nd.crGene]
		}
		kRow, rRow := gi, b*t.nPay+c[2]
		if m.view {
			kRow, rRow = vi, b
		}
		k := m.k[kRow*m.nCR+cr]
		if k < 0 {
			return t.slotsError(gp.mac, sf.delta, vi, i, cr)
		}
		dtx := core.Interval(int(k), sf.delta)
		used += dtx
		var own float64
		if int(k) < len(sf.ownTx) {
			own = sf.ownTx[k]
		} else {
			own = sf.terms.SlotTime(dtx)
		}
		totalTx += own
		ownTx[i] = own
		lt := m.local[cr*m.nF+c[nd.fGene]]
		if lt.fails && failed < 0 {
			failed = i
		}
		// Eq. 7: the local terms' sum plus Eq. 6.
		nodeEnergy[i] = lt.power + m.radio[rRow*m.nCR+cr]
		nodeQuality[i] = m.quality[cr]
	}
	if _, err := core.Budget(gp.mac, len(t.nodes), used, sf.capacity, sf.control); err != nil {
		return err
	}
	if failed >= 0 {
		return t.localError(c, failed)
	}
	// Eq. 9 for every node, and the three Eq. 8 combines side by side.
	var energy, quality, delay numeric.Moments
	for i := range t.nodes {
		d := sf.terms
		d.Service2 = gp.service2
		if m := t.nodes[i].model; m.view {
			d.Service2 = m.service2
		}
		energy = energy.Add(nodeEnergy[i])
		quality = quality.Add(nodeQuality[i])
		delay = delay.Add(d.Bound(totalTx, ownTx[i]))
	}
	objs[0] = core.CombineMoments(energy, t.theta)
	objs[1] = core.CombineMoments(quality, t.theta)
	objs[2] = core.CombineMoments(delay, t.theta)
	return nil
}

// slotsError is the error core.Slots reports for node i, whose k entry
// marks a failure.
func (t *Compiled) slotsError(base *core.GTSMac, delta float64, vi, i, cr int) error {
	m := t.nodes[i].model
	var mac core.MAC = base
	if m.view {
		mac = m.views[vi].MAC
	}
	_, err := core.Slots(base, mac, delta, m.phiOut[cr], i)
	return err
}

// localError is the error core.Node.LocalEnergy reports for node i, whose
// local entry marks a failure.
func (t *Compiled) localError(c dse.Config, i int) error {
	nd := &t.nodes[i]
	cr := 0
	if nd.crGene >= 0 {
		cr = c[nd.crGene]
	}
	ns := &t.specs[i]
	node := core.Node{Name: ns.Name, Platform: ns.Platform, App: nd.model.apps[cr],
		SampleFreq: ns.SampleFreq, MicroFreq: nd.model.freqs[c[nd.fGene]]}
	_, err := node.LocalEnergy(nd.model.phiIn)
	return err
}
