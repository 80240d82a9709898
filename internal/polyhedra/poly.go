// Package polyhedra implements the integer-polyhedra layer RIOTShare builds
// on: basic polyhedra (conjunctions of affine equalities and inequalities
// over integer points), unions of basic polyhedra ("sets"), and the
// operations the optimizer needs — intersection, Fourier-Motzkin projection,
// exact integer subtraction, emptiness testing, integer-point sampling and
// enumeration. It replaces the isl library [Verdoolaege 2010] used by the
// paper.
//
// A constraint is stored as a coefficient vector over the space's variables
// plus a constant; an inequality constraint means expr >= 0 and an equality
// constraint means expr == 0, following the paper's matrix notation in §4.1.
//
// Coefficient vectors are never modified once a polyhedron holds them, so
// operations share them freely instead of copying: projection, emptiness
// testing and sampling never deep-copy a polyhedron they are about to
// discard. The vectors of one polyhedron built here are carved out of a
// single backing array.
package polyhedra

import (
	"fmt"
	"sort"
	"strings"

	"riotshare/internal/linalg"
)

// Constraint is a single affine constraint over a polyhedron's variables:
// Coef·x + K >= 0 (Eq=false) or Coef·x + K == 0 (Eq=true).
type Constraint struct {
	Coef []int64
	K    int64
	Eq   bool
}

// Clone returns a deep copy of the constraint.
func (c Constraint) Clone() Constraint {
	return Constraint{Coef: linalg.CloneVec(c.Coef), K: c.K, Eq: c.Eq}
}

// Eval evaluates the constraint's affine expression at the given point.
func (c Constraint) Eval(pt []int64) int64 {
	return linalg.Dot(c.Coef, pt) + c.K
}

// Holds reports whether the point satisfies the constraint.
func (c Constraint) Holds(pt []int64) bool {
	v := c.Eval(pt)
	if c.Eq {
		return v == 0
	}
	return v >= 0
}

// Poly is a basic polyhedron: the integer points of a conjunction of affine
// constraints over Dim variables. Names is optional debugging metadata with
// len == Dim when present.
//
// Rational marks a polyhedron whose points range over the rationals rather
// than the integers (e.g. Farkas multiplier spaces, Lemma 1): Simplify then
// skips integer-only reasoning (constant tightening and the GCD test), and
// elimination computes the exact rational shadow.
type Poly struct {
	Dim      int
	Names    []string
	Cons     []Constraint
	Rational bool
}

// NewPoly returns an unconstrained polyhedron (all of Z^dim).
func NewPoly(dim int, names ...string) *Poly {
	if len(names) != 0 && len(names) != dim {
		panic("polyhedra: names length mismatch")
	}
	return &Poly{Dim: dim, Names: append([]string(nil), names...)}
}

// Clone returns a deep copy. All of the copy's coefficient vectors are
// carved out of one backing array.
func (p *Poly) Clone() *Poly {
	q := &Poly{Dim: p.Dim, Names: p.Names, Rational: p.Rational}
	arena := newCoefArena(len(p.Cons), p.Dim)
	q.Cons = appendCopies(make([]Constraint, 0, len(p.Cons)), &arena, p.Cons)
	return q
}

// coefArena hands out coefficient vectors carved from one backing array, so
// a polyhedron's constraints cost one allocation instead of one each. Each
// vector is capped at its length: appending to one never runs into the
// next.
type coefArena []int64

func newCoefArena(n, dim int) coefArena {
	return make(coefArena, n*dim)
}

// take returns the next dim-long zeroed vector, growing the arena if a
// caller takes more than it was sized for.
func (a *coefArena) take(dim int) []int64 {
	if len(*a) < dim {
		*a = make(coefArena, dim)
	}
	v := (*a)[:dim:dim]
	*a = (*a)[dim:]
	return v
}

// appendCopies appends deep copies of src to dst, drawing their
// coefficient vectors from the arena.
func appendCopies(dst []Constraint, a *coefArena, src []Constraint) []Constraint {
	for _, c := range src {
		coef := a.take(len(c.Coef))
		copy(coef, c.Coef)
		dst = append(dst, Constraint{Coef: coef, K: c.K, Eq: c.Eq})
	}
	return dst
}

// shallowCopy returns a polyhedron with its own constraint list but
// sharing p's coefficient vectors: enough for in-place Simplify, which
// rewrites list entries but never a vector it does not own.
func (p *Poly) shallowCopy() *Poly {
	return &Poly{Dim: p.Dim, Names: p.Names, Rational: p.Rational, Cons: append([]Constraint(nil), p.Cons...)}
}

// Add appends a constraint (which must have len(Coef) == Dim).
func (p *Poly) Add(c Constraint) *Poly {
	if len(c.Coef) != p.Dim {
		panic(fmt.Sprintf("polyhedra: constraint dim %d != poly dim %d", len(c.Coef), p.Dim))
	}
	p.Cons = append(p.Cons, c)
	return p
}

// AddIneq adds coef·x + k >= 0.
func (p *Poly) AddIneq(coef []int64, k int64) *Poly {
	return p.Add(Constraint{Coef: linalg.CloneVec(coef), K: k})
}

// AddEq adds coef·x + k == 0.
func (p *Poly) AddEq(coef []int64, k int64) *Poly {
	return p.Add(Constraint{Coef: linalg.CloneVec(coef), K: k, Eq: true})
}

// AddRange adds lo <= x[i] <= hi.
func (p *Poly) AddRange(i int, lo, hi int64) *Poly {
	c1 := make([]int64, p.Dim)
	c1[i] = 1
	p.AddIneq(c1, -lo) // x[i] - lo >= 0
	c2 := make([]int64, p.Dim)
	c2[i] = -1
	p.AddIneq(c2, hi) // hi - x[i] >= 0
	return p
}

// Contains reports whether the integer point satisfies every constraint.
func (p *Poly) Contains(pt []int64) bool {
	if len(pt) != p.Dim {
		panic("polyhedra: point dimension mismatch")
	}
	for _, c := range p.Cons {
		if !c.Holds(pt) {
			return false
		}
	}
	return true
}

// Intersect returns a new polyhedron with the constraints of both operands.
func Intersect(a, b *Poly) *Poly {
	if a.Dim != b.Dim {
		panic("polyhedra: Intersect dimension mismatch")
	}
	out := &Poly{Dim: a.Dim, Names: a.Names, Rational: a.Rational}
	arena := newCoefArena(len(a.Cons)+len(b.Cons), a.Dim)
	out.Cons = make([]Constraint, 0, len(a.Cons)+len(b.Cons))
	out.Cons = appendCopies(appendCopies(out.Cons, &arena, a.Cons), &arena, b.Cons)
	return out
}

// Simplify normalizes constraints in place: gcd-reduces them (with integer
// tightening of inequality constants), drops trivially-true constraints,
// deduplicates, and detects simple infeasibility. It reports whether the
// polyhedron is still possibly non-empty (false means definitely empty).
func (p *Poly) Simplify() bool {
	return p.simplify(false, fullHash)
}

// fullHash is the hash mask Simplify runs with: every bit of the constraint
// hash is used.
const fullHash = ^uint64(0)

// simplify is Simplify with two internal knobs. owned says no other
// polyhedron shares p's coefficient vectors, so normalization may rewrite
// them in place instead of allocating. hashMask is applied to every
// constraint hash; tests pass 0 to send every lookup down the collision
// path.
func (p *Poly) simplify(owned bool, hashMask uint64) bool {
	out := p.Cons[:0]
	idx := newConIndex(len(p.Cons), hashMask)
	for _, c := range p.Cons {
		if linalg.IsZeroVec(c.Coef) {
			if (c.Eq && c.K != 0) || (!c.Eq && c.K < 0) {
				return p.setFalse()
			}
			continue // trivially true
		}
		// Normalize to coef/div (and, for an equality, a positive first
		// nonzero coefficient): div is the gcd where integer reasoning (or
		// an exact rational equality) allows dividing by it.
		div := int64(1)
		if g := linalg.GcdVec(c.Coef); g > 1 {
			switch {
			case c.Eq && c.K%g != 0:
				if !p.Rational {
					return p.setFalse() // GCD test: no integer solutions.
				}
			case c.Eq:
				div, c.K = g, c.K/g
			case !p.Rational:
				// coef·x >= -K  =>  (coef/g)·x >= ceil(-K/g), i.e. K' = floor(K/g).
				div, c.K = g, floorDiv(c.K, g)
			}
		}
		sign := int64(1)
		if c.Eq && firstNonzero(c.Coef) < 0 {
			sign, c.K = -1, -c.K
		}
		if div != 1 || sign != 1 {
			coef := c.Coef
			if !owned {
				coef = make([]int64, len(c.Coef))
			}
			for k, x := range c.Coef {
				coef[k] = sign * (x / div)
			}
			c.Coef = coef
		}
		j, slot, h := idx.lookup(out, c.Coef, 1, c.Eq)
		if j >= 0 {
			// Same coefficient vector: keep the tighter constant.
			if c.Eq {
				if out[j].K != c.K {
					return p.setFalse()
				}
			} else if c.K < out[j].K {
				out[j].K = c.K
			}
			continue
		}
		idx.insert(slot, h, len(out))
		out = append(out, c)
	}
	p.Cons = out
	// Detect directly contradictory inequality pairs: e+k1>=0 and -e+k2>=0
	// with k1+k2 < 0; and inequality vs equality conflicts are left to the
	// emptiness test.
	for _, c := range p.Cons {
		if c.Eq {
			continue
		}
		if j, _, _ := idx.lookup(p.Cons, c.Coef, -1, false); j >= 0 && c.K+p.Cons[j].K < 0 {
			return p.setFalse()
		}
	}
	return true
}

// setFalse replaces the constraints with a single unsatisfiable one and
// returns false, Simplify's verdict for a definitely empty polyhedron.
func (p *Poly) setFalse() bool {
	p.Cons = []Constraint{falseCon(p.Dim)}
	return false
}

func firstNonzero(v []int64) int64 {
	for _, x := range v {
		if x != 0 {
			return x
		}
	}
	return 0
}

func falseCon(dim int) Constraint {
	return Constraint{Coef: make([]int64, dim), K: -1}
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// conIndex is an open-addressing hash index over a constraint list, keyed by
// (Eq, Coef). A slot packs the hash's top 32 bits over 1 + the entry's list
// index (0 marks a free slot); the low hash bits pick the slot. Every tag
// match is confirmed by comparing the coefficients, so colliding hashes
// cost a probe, never a wrong answer.
type conIndex struct {
	slots []uint64 // power-of-two length, at most half full
	mask  uint64
}

func newConIndex(n int, hashMask uint64) conIndex {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return conIndex{slots: make([]uint64, size), mask: hashMask}
}

// lookup finds the constraint of cons with the given Eq flag whose
// coefficients equal sign*coef. It returns that constraint's index, or -1
// together with the free slot and hash an insert of it would use.
func (x conIndex) lookup(cons []Constraint, coef []int64, sign int64, eq bool) (j, slot int, h uint64) {
	h = hashCon(coef, sign, eq) & x.mask
	m := len(x.slots) - 1
	for s := int(h) & m; ; s = (s + 1) & m {
		e := x.slots[s]
		if e == 0 {
			return -1, s, h
		}
		if e>>32 == h>>32 {
			j := int(uint32(e)) - 1
			if c := cons[j]; c.Eq == eq && equalScaled(c.Coef, coef, sign) {
				return j, s, h
			}
		}
	}
}

// insert records list entry j, with hash h, at the free slot lookup
// returned.
func (x conIndex) insert(slot int, h uint64, j int) {
	x.slots[slot] = h>>32<<32 | uint64(j+1)
}

// hashCon hashes (eq, sign*coef) without materializing the scaled vector.
func hashCon(coef []int64, sign int64, eq bool) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis, word-wise
	if eq {
		h = ^h
	}
	for _, x := range coef {
		h = (h ^ uint64(sign*x)) * 1099511628211
	}
	// Final avalanche so the low bits used for the slot depend on every
	// coefficient bit.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// equalScaled reports whether a == sign*b elementwise.
func equalScaled(a, b []int64, sign int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if x != sign*b[k] {
			return false
		}
	}
	return true
}

// name returns a printable name for variable i.
func (p *Poly) name(i int) string {
	if len(p.Names) == p.Dim && p.Names[i] != "" {
		return p.Names[i]
	}
	return fmt.Sprintf("x%d", i)
}

// String renders the polyhedron as a conjunction of constraints.
func (p *Poly) String() string {
	if len(p.Cons) == 0 {
		return fmt.Sprintf("{Z^%d}", p.Dim)
	}
	parts := make([]string, 0, len(p.Cons))
	for _, c := range p.Cons {
		var terms []string
		for i, x := range c.Coef {
			switch {
			case x == 0:
			case x == 1:
				terms = append(terms, p.name(i))
			case x == -1:
				terms = append(terms, "-"+p.name(i))
			default:
				terms = append(terms, fmt.Sprintf("%d%s", x, p.name(i)))
			}
		}
		if c.K != 0 || len(terms) == 0 {
			terms = append(terms, fmt.Sprintf("%d", c.K))
		}
		expr := strings.Join(terms, "+")
		expr = strings.ReplaceAll(expr, "+-", "-")
		if c.Eq {
			parts = append(parts, expr+" = 0")
		} else {
			parts = append(parts, expr+" >= 0")
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " and ") + "}"
}

// BindVar substitutes x[i] = v and returns a polyhedron of dimension Dim-1
// (column i removed).
func (p *Poly) BindVar(i int, v int64) *Poly {
	q := &Poly{Dim: p.Dim - 1, Rational: p.Rational}
	if len(p.Names) == p.Dim {
		q.Names = append(append([]string(nil), p.Names[:i]...), p.Names[i+1:]...)
	}
	for _, c := range p.Cons {
		nc := Constraint{
			Coef: append(append([]int64(nil), c.Coef[:i]...), c.Coef[i+1:]...),
			K:    c.K + c.Coef[i]*v,
			Eq:   c.Eq,
		}
		q.Cons = append(q.Cons, nc)
	}
	return q
}

// InsertVars returns a polyhedron over dim+count variables where count fresh
// unconstrained variables are inserted starting at position at (existing
// columns shift right). Used to move constraints between related spaces.
func (p *Poly) InsertVars(at, count int, names ...string) *Poly {
	if len(names) != 0 && len(names) != count {
		panic("polyhedra: InsertVars names mismatch")
	}
	q := &Poly{Dim: p.Dim + count, Rational: p.Rational}
	if len(p.Names) == p.Dim {
		q.Names = make([]string, 0, q.Dim)
		q.Names = append(q.Names, p.Names[:at]...)
		if len(names) == count {
			q.Names = append(q.Names, names...)
		} else {
			for i := 0; i < count; i++ {
				q.Names = append(q.Names, fmt.Sprintf("t%d", i))
			}
		}
		q.Names = append(q.Names, p.Names[at:]...)
	}
	for _, c := range p.Cons {
		coef := make([]int64, q.Dim)
		copy(coef, c.Coef[:at])
		copy(coef[at+count:], c.Coef[at:])
		q.Cons = append(q.Cons, Constraint{Coef: coef, K: c.K, Eq: c.Eq})
	}
	return q
}

// Equalities returns the equality constraints (after Simplify semantics; the
// caller should Simplify first if canonical form matters).
func (p *Poly) Equalities() []Constraint {
	var out []Constraint
	for _, c := range p.Cons {
		if c.Eq {
			out = append(out, c)
		}
	}
	return out
}
