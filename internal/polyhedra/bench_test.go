package polyhedra

import (
	"math/rand"
	"testing"
)

// benchSystem returns a fixed integer system shaped like the planner's
// pair spaces: a 10-variable box, two equalities tying variables together,
// and a dozen seeded inequalities with small mixed-sign coefficients.
func benchSystem() *Poly {
	const dim = 10
	rng := rand.New(rand.NewSource(4))
	p := box(dim, 0, 7)
	p.AddEq([]int64{1, 0, 0, 0, 0, -1, 0, 0, 0, 0}, 0)
	p.AddEq([]int64{0, 1, 0, 0, 0, 0, -1, 0, 0, 0}, -1)
	for k := 0; k < 12; k++ {
		coef := make([]int64, dim)
		for i := range coef {
			coef[i] = int64(rng.Intn(5) - 2)
		}
		p.AddIneq(coef, int64(rng.Intn(9)))
	}
	return p
}

// BenchmarkSimplify measures Simplify on benchSystem with every constraint
// repeated three times (once doubled, once as-is with a looser constant),
// so deduplication and gcd reduction both do work. Each op includes
// copying the constraint list Simplify compacts in place.
func BenchmarkSimplify(b *testing.B) {
	src := benchSystem()
	in := NewPoly(src.Dim)
	for _, c := range src.Cons {
		in.Add(c)
		in.Add(Constraint{Coef: scaled(2, c.Coef), K: 2 * c.K, Eq: c.Eq})
		if !c.Eq {
			in.Add(Constraint{Coef: c.Coef, K: c.K + 1})
		}
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		q := in.shallowCopy()
		if !q.Simplify() {
			b.Fatal("benchmark system is feasible")
		}
	}
}

// BenchmarkEliminateVar measures one Fourier-Motzkin step per variable of
// benchSystem: the two equality substitutions and eight pure
// inequality eliminations.
func BenchmarkEliminateVar(b *testing.B) {
	p := benchSystem()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		for i := 0; i < p.Dim; i++ {
			p.EliminateVar(i)
		}
	}
}

func scaled(k int64, v []int64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = k * x
	}
	return out
}
