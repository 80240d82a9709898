package sched

import (
	"context"
	"testing"
)

// BenchmarkFindSchedule measures one FindSchedule call for the paper's
// Plan 7 sharing set on addmul, from a fresh Searcher each op so the Farkas
// cache starts cold and every legality check runs its polyhedral
// elimination. It also reports the Farkas applications per op, a
// deterministic count of the work done.
func BenchmarkFindSchedule(b *testing.B) {
	an := addMulAnalysis(b, 3, 4, 2, false)
	q := sharesByName(b, an, "s1WC→s2RC", "s2WE→s2RE", "s2WE→s2WE")
	b.ReportAllocs()
	var apps int
	for n := 0; n < b.N; n++ {
		s := NewSearcher(an)
		if _, ok := s.FindSchedule(context.Background(), q); !ok {
			b.Fatal("Plan 7 sharing set should be feasible")
		}
		apps = s.Stats.FarkasApps
	}
	b.ReportMetric(float64(apps), "farkas/op")
}
