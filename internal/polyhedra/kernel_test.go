package polyhedra

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randSystem builds a random constraint system (not necessarily bounded or
// feasible) with small coefficients. It repeats, scales and negates earlier
// constraints on purpose so that deduplication, gcd reduction and the
// contradictory-pair probe all fire.
func randSystem(rng *rand.Rand, withEqs bool) *Poly {
	dim := 1 + rng.Intn(5)
	p := NewPoly(dim)
	p.Rational = rng.Intn(3) == 0
	n := rng.Intn(9)
	for k := 0; k < n; k++ {
		coef := make([]int64, dim)
		var c Constraint
		if k > 0 && rng.Intn(4) == 0 {
			prev := p.Cons[rng.Intn(len(p.Cons))]
			scale := []int64{1, -1, 2, -2, 3}[rng.Intn(5)]
			for i, x := range prev.Coef {
				coef[i] = scale * x
			}
			c = Constraint{Coef: coef, K: scale*prev.K + int64(rng.Intn(3)-1), Eq: prev.Eq && rng.Intn(2) == 0}
		} else {
			for i := range coef {
				if rng.Intn(3) != 0 {
					coef[i] = int64(rng.Intn(7) - 3)
				}
			}
			c = Constraint{Coef: coef, K: int64(rng.Intn(13) - 6)}
		}
		if withEqs && rng.Intn(4) == 0 {
			c.Eq = true
		}
		if !withEqs {
			c.Eq = false
		}
		p.Add(c)
	}
	return p
}

// canonicalSet renders a constraint list as a sorted set of strings.
func canonicalSet(cons []Constraint) []string {
	out := make([]string, len(cons))
	for i, c := range cons {
		out[i] = fmt.Sprint(c.Eq, c.K, c.Coef)
	}
	sort.Strings(out)
	return out
}

// sameCons requires two constraint lists to be identical, order included:
// the elimination heuristics are order-sensitive, so identical plans need
// identical lists, not merely equivalent ones.
func sameCons(t *testing.T, what string, p *Poly, got, want []Constraint) {
	t.Helper()
	if !reflect.DeepEqual(canonicalSet(got), canonicalSet(want)) {
		t.Fatalf("%s of %s: constraint sets differ\n got %v\nwant %v", what, p, got, want)
	}
	for i := range got {
		if got[i].Eq != want[i].Eq || got[i].K != want[i].K || !reflect.DeepEqual(got[i].Coef, want[i].Coef) {
			t.Fatalf("%s of %s: constraint %d differs\n got %v\nwant %v", what, p, i, got, want)
		}
	}
}

// TestKernelMatchesReference drives the production kernel and the
// reference kernel (reference_test.go) over random systems — rational and
// integer, with and without equalities — and requires identical answers.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240611))
	iters := 3000
	if testing.Short() {
		iters = 800
	}
	for iter := 0; iter < iters; iter++ {
		p := randSystem(rng, iter%2 == 0)
		before := p.String()

		ref := refClone(p)
		refOK := refSimplify(ref)
		for _, mode := range []struct {
			name  string
			owned bool
			mask  uint64
		}{{"Simplify", false, fullHash}, {"owned simplify", true, fullHash}, {"colliding simplify", false, 0}} {
			got := p.Clone()
			if ok := got.simplify(mode.owned, mode.mask); ok != refOK {
				t.Fatalf("%s of %s: feasible=%v, reference %v", mode.name, p, ok, refOK)
			}
			sameCons(t, mode.name, p, got.Cons, ref.Cons)
		}

		for i := 0; i < p.Dim; i++ {
			got, gotExact := p.EliminateVar(i)
			want, wantExact := refEliminateVar(p, i)
			if gotExact != wantExact {
				t.Fatalf("EliminateVar(%d) of %s: exact=%v, reference %v", i, p, gotExact, wantExact)
			}
			if got.Dim != want.Dim || got.Rational != want.Rational {
				t.Fatalf("EliminateVar(%d) of %s: shape %d/%v, reference %d/%v", i, p, got.Dim, got.Rational, want.Dim, want.Rational)
			}
			sameCons(t, fmt.Sprintf("EliminateVar(%d)", i), p, got.Cons, want.Cons)
		}

		if got, want := p.IsEmptyRational(), refIsEmptyRational(p); got != want {
			t.Fatalf("IsEmptyRational(%s) = %v, reference %v", p, got, want)
		}
		gotPt, gotOK := p.SampleInt(4)
		wantPt, wantOK := refSampleInt(p, 4)
		if gotOK != wantOK || !reflect.DeepEqual(gotPt, wantPt) {
			t.Fatalf("SampleInt(%s) = %v,%v, reference %v,%v", p, gotPt, gotOK, wantPt, wantOK)
		}
		sameCons(t, "ImpliedEqualities", p, p.ImpliedEqualities(), refImpliedEqualities(p))

		if after := p.String(); after != before {
			t.Fatalf("kernel modified its input: %s became %s", before, after)
		}
	}
}

// TestSimplifyHashCollisions forces every constraint onto one hash value, so
// each lookup walks the probe chain and must tell distinct vectors apart by
// comparing coefficients.
func TestSimplifyHashCollisions(t *testing.T) {
	p := NewPoly(2)
	p.AddIneq([]int64{1, 0}, 0)  // x >= 0
	p.AddIneq([]int64{0, 1}, 0)  // y >= 0
	p.AddIneq([]int64{1, 0}, -2) // x >= 2: same vector as the first, tighter
	p.AddEq([]int64{1, 0}, -3)   // x == 3: same vector, but an equality
	p.AddIneq([]int64{-1, 0}, 5) // x <= 5: the negation of the first
	p.AddIneq([]int64{0, -1}, 1) // y <= 1
	q := p.Clone()
	if !q.simplify(false, 0) {
		t.Fatalf("colliding simplify declared %s empty", p)
	}
	want := []string{"{-x0+5 >= 0 and -x1+1 >= 0 and x0-2 >= 0 and x0-3 = 0 and x1 >= 0}"}
	if got := q.String(); got != want[0] {
		t.Fatalf("colliding simplify: got %s, want %s", got, want[0])
	}

	// The contradictory-pair probe must also see through collisions:
	// x >= 2 and x <= 1 share a hash with everything else.
	r := NewPoly(2)
	r.AddIneq([]int64{0, 1}, 0)
	r.AddIneq([]int64{1, 0}, -2)
	r.AddIneq([]int64{0, -1}, 4)
	r.AddIneq([]int64{-1, 0}, 1)
	if r.simplify(false, 0) {
		t.Fatalf("colliding simplify missed the contradiction x >= 2, x <= 1")
	}
}

// TestCarvedCoefficientsAreCapped checks that vectors carved from one
// arena cannot overwrite each other through append.
func TestCarvedCoefficientsAreCapped(t *testing.T) {
	p := box(2, 0, 3)
	q := p.Clone()
	grown := append(q.Cons[0].Coef, 99)
	grown[0] = 42
	if q.Cons[1].Coef[0] != -1 || q.Cons[0].Coef[0] != 1 {
		t.Fatalf("append through a carved vector clobbered the arena: %v", q.Cons)
	}
	if p.Cons[0].Coef[0] != 1 {
		t.Fatalf("Clone shares storage with its source")
	}
}
