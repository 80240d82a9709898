package polyhedra

import (
	"strconv"

	"riotshare/internal/linalg"
)

// This file keeps the original, allocation-heavy kernel as a test oracle:
// string-keyed constraint deduplication and Fourier-Motzkin elimination that
// builds every combined constraint with a full-width vector before dropping
// the eliminated column. The differential tests check that the production
// kernel computes exactly the same constraint lists, in the same order.

// conKey is the reference dedup key: the formatted (Eq, Coef) pair.
func conKey(c Constraint) string {
	buf := make([]byte, 0, 1+len(c.Coef)*3)
	if c.Eq {
		buf = append(buf, '=')
	}
	for _, x := range c.Coef {
		buf = strconv.AppendInt(buf, x, 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// refSimplify is the reference Simplify.
func refSimplify(p *Poly) bool {
	out := p.Cons[:0]
	seen := make(map[string]int) // key -> index into out
	for _, c := range p.Cons {
		if linalg.IsZeroVec(c.Coef) {
			if (c.Eq && c.K != 0) || (!c.Eq && c.K < 0) {
				p.Cons = []Constraint{falseCon(p.Dim)}
				return false
			}
			continue // trivially true
		}
		g := linalg.GcdVec(c.Coef)
		if g > 1 && !p.Rational {
			if c.Eq {
				if c.K%g != 0 {
					p.Cons = []Constraint{falseCon(p.Dim)}
					return false
				}
				c = Constraint{Coef: refDivVec(c.Coef, g), K: c.K / g, Eq: true}
			} else {
				c = Constraint{Coef: refDivVec(c.Coef, g), K: floorDiv(c.K, g)}
			}
		} else if g > 1 && p.Rational && c.Eq && c.K%g == 0 {
			c = Constraint{Coef: refDivVec(c.Coef, g), K: c.K / g, Eq: true}
		}
		if c.Eq {
			for _, x := range c.Coef {
				if x != 0 {
					if x < 0 {
						c = Constraint{Coef: linalg.ScaleVec(-1, c.Coef), K: -c.K, Eq: true}
					}
					break
				}
			}
		}
		key := conKey(c)
		if j, ok := seen[key]; ok {
			if c.Eq {
				if out[j].K != c.K {
					p.Cons = []Constraint{falseCon(p.Dim)}
					return false
				}
			} else if c.K < out[j].K {
				out[j].K = c.K
			}
			continue
		}
		seen[key] = len(out)
		out = append(out, c)
	}
	p.Cons = out
	for _, c := range p.Cons {
		if c.Eq {
			continue
		}
		neg := Constraint{Coef: linalg.ScaleVec(-1, c.Coef)}
		if j, ok := seen[conKey(neg)]; ok && !p.Cons[j].Eq {
			if c.K+p.Cons[j].K < 0 {
				p.Cons = []Constraint{falseCon(p.Dim)}
				return false
			}
		}
	}
	return true
}

func refDivVec(v []int64, g int64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = x / g
	}
	return out
}

// refClone is the reference deep copy: one fresh vector per constraint.
func refClone(p *Poly) *Poly {
	q := &Poly{Dim: p.Dim, Names: p.Names, Rational: p.Rational}
	q.Cons = make([]Constraint, len(p.Cons))
	for i, c := range p.Cons {
		q.Cons[i] = c.Clone()
	}
	return q
}

// refEliminateVar is the reference EliminateVar.
func refEliminateVar(p *Poly, i int) (*Poly, bool) {
	exact := true
	bestEq := -1
	for j, c := range p.Cons {
		if c.Eq && c.Coef[i] != 0 {
			if bestEq < 0 || abs64(c.Coef[i]) < abs64(p.Cons[bestEq].Coef[i]) {
				bestEq = j
			}
		}
	}
	q := &Poly{Dim: p.Dim - 1, Rational: p.Rational}
	if len(p.Names) == p.Dim {
		q.Names = append(append([]string(nil), p.Names[:i]...), p.Names[i+1:]...)
	}
	if bestEq >= 0 {
		e := p.Cons[bestEq]
		if abs64(e.Coef[i]) != 1 {
			exact = false
		}
		for j, c := range p.Cons {
			if j == bestEq {
				continue
			}
			if c.Coef[i] == 0 {
				q.Cons = append(q.Cons, refDropCol(c, i))
				continue
			}
			h := refCombine(e.Coef[i], c, -c.Coef[i], e)
			if e.Coef[i] < 0 && !c.Eq {
				h = Constraint{Coef: linalg.ScaleVec(-1, h.Coef), K: -h.K, Eq: h.Eq}
			}
			q.Cons = append(q.Cons, refDropCol(h, i))
		}
		refSimplify(q)
		return q, exact
	}
	var lowers, uppers, free []Constraint
	for _, c := range p.Cons {
		switch {
		case c.Coef[i] > 0:
			lowers = append(lowers, c)
		case c.Coef[i] < 0:
			uppers = append(uppers, c)
		default:
			free = append(free, c)
		}
	}
	for _, c := range free {
		q.Cons = append(q.Cons, refDropCol(c, i))
	}
	for _, lo := range lowers {
		for _, up := range uppers {
			if lo.Coef[i] != 1 && -up.Coef[i] != 1 {
				exact = false
			}
			h := refCombine(-up.Coef[i], lo, lo.Coef[i], up)
			q.Cons = append(q.Cons, refDropCol(h, i))
		}
	}
	refSimplify(q)
	return q, exact
}

func refCombine(a int64, c1 Constraint, b int64, c2 Constraint) Constraint {
	coef := make([]int64, len(c1.Coef))
	for k := range coef {
		coef[k] = a*c1.Coef[k] + b*c2.Coef[k]
	}
	return Constraint{Coef: coef, K: a*c1.K + b*c2.K, Eq: c1.Eq && c2.Eq}
}

func refDropCol(c Constraint, i int) Constraint {
	coef := append(append([]int64(nil), c.Coef[:i]...), c.Coef[i+1:]...)
	return Constraint{Coef: coef, K: c.K, Eq: c.Eq}
}

// refIsEmptyRational is IsEmptyRational over the reference kernel.
func refIsEmptyRational(p *Poly) bool {
	q := refClone(p)
	if !refSimplify(q) {
		return true
	}
	for q.Dim > 0 {
		q, _ = refEliminateVar(q, q.cheapestVar())
		if !q.hasPoints() {
			return true
		}
	}
	return !q.hasPoints()
}

// refSampleInt is SampleInt over the reference kernel.
func refSampleInt(p *Poly, radius int64) ([]int64, bool) {
	q := refClone(p)
	if !refSimplify(q) {
		return nil, false
	}
	if q.Dim == 0 {
		if q.hasPoints() {
			return []int64{}, true
		}
		return nil, false
	}
	chain := make([]*Poly, q.Dim+1)
	chain[q.Dim] = q
	cur := refClone(q)
	for j := q.Dim - 1; j >= 0; j-- {
		cur, _ = refEliminateVar(cur, j)
		chain[j] = cur
	}
	v := make([]int64, q.Dim)
	if sampleDFS(q, chain, 0, v, radius) {
		return v, true
	}
	return nil, false
}

// refImpliedEqualities is ImpliedEqualities over the reference kernel.
func refImpliedEqualities(p *Poly) []Constraint {
	var eqs []Constraint
	for _, c := range p.Cons {
		if c.Eq {
			eqs = append(eqs, c.Clone())
			continue
		}
		strict := refClone(p)
		strict.AddIneq(linalg.ScaleVec(1, c.Coef), c.K-1)
		if refIsEmptyRational(strict) {
			eqs = append(eqs, Constraint{Coef: linalg.CloneVec(c.Coef), K: c.K, Eq: true})
		}
	}
	return eqs
}
