package service

import (
	"math"
	"slices"
)

// packedFront is a finished front as a job record and the result store
// keep it: one byte per gene, as the memo stores genes (no registered
// scenario has a parameter with more than 256 values), the objectives in
// one flat slab, and no per-point header, so a point costs 1 B per gene
// plus 8 B per objective. It never changes once built; every read
// materializes a fresh []FrontPoint (points) that is the caller's own.
//
// A front that does not fit that layout keeps a private copy of its wire
// points in odd instead: a gene outside [0, 256), points of unequal
// length, or a point whose config or objectives are null. Only a
// hand-written result file holds one.
type packedFront struct {
	n, genes, objs int // points; genes and objectives per point
	g              []uint8
	o              []float64
	odd            []FrontPoint
}

// pack packs a wire front. A nil front packs to nil, which materializes
// as nil again, so a stored "front": null reads back as null.
func pack(front []FrontPoint) *packedFront {
	if front == nil {
		return nil
	}
	return packFront(len(front), func(i int) ([]int, []float64) { return front[i].Config, front[i].Objs })
}

// packFront packs n points, point i's genes and objectives being at(i).
// It copies what it keeps, so the caller's slices stay the caller's.
func packFront(n int, at func(int) ([]int, []float64)) *packedFront {
	pf := &packedFront{n: n}
	if n > 0 {
		c, o := at(0)
		pf.genes, pf.objs = len(c), len(o)
	}
	// Check every point before sizing the slabs from the first one.
	for i := range n {
		c, o := at(i)
		if c == nil || o == nil || len(c) != pf.genes || len(o) != pf.objs {
			return &packedFront{n: n, odd: clonePoints(n, at)}
		}
		for _, v := range c {
			if uint(v) > math.MaxUint8 { // a negative gene wraps above too
				return &packedFront{n: n, odd: clonePoints(n, at)}
			}
		}
	}
	pf.g = make([]uint8, n*pf.genes)
	pf.o = make([]float64, n*pf.objs)
	g, obj := pf.g, pf.o
	for i := range n {
		c, o := at(i)
		for k, v := range c {
			g[k] = uint8(v)
		}
		copy(obj, o)
		g, obj = g[pf.genes:], obj[pf.objs:]
	}
	return pf
}

// points materializes the front as wire points in storage of their own:
// one gene slab and one objective slab, as dse.Result's front is laid
// out.
func (pf *packedFront) points() []FrontPoint {
	if pf == nil {
		return nil
	}
	if pf.odd != nil {
		return clonePoints(pf.n, func(i int) ([]int, []float64) { return pf.odd[i].Config, pf.odd[i].Objs })
	}
	out := make([]FrontPoint, pf.n)
	g := make([]int, len(pf.g))
	for i, v := range pf.g {
		g[i] = int(v)
	}
	o := make([]float64, len(pf.o))
	copy(o, pf.o)
	for i := range out {
		out[i] = FrontPoint{Config: g[:pf.genes:pf.genes], Objs: o[:pf.objs:pf.objs]}
		g, o = g[pf.genes:], o[pf.objs:]
	}
	return out
}

// clonePoints deep-copies n points, point i being at(i); a nil config or
// objective slice stays nil.
func clonePoints(n int, at func(int) ([]int, []float64)) []FrontPoint {
	out := make([]FrontPoint, n)
	for i := range out {
		c, o := at(i)
		out[i] = FrontPoint{Config: slices.Clone(c), Objs: slices.Clone(o)}
	}
	return out
}
