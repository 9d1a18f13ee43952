package cathy

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lesm/internal/core"
	"lesm/internal/par"
	"lesm/internal/synth"
)

// BenchmarkEMSweep times one non-final E+M sweep of the root split of a
// ~4k-paper synthetic DBLP network (background on) at P=1 and P=NumCPU,
// for each k with a register kernel (2, 3 and 4) and one k that runs the
// generic loop (6). links/s counts each link once per sweep (both of its
// directions are visited).
func BenchmarkEMSweep(b *testing.B) {
	ds := synth.DBLP(synth.DBLPConfig{NumPapers: 4000, Seed: 51})
	net := ds.CollapsedNetwork(0)
	root := core.NewHierarchy().Root
	for _, k := range []int{2, 3, 4, 6} {
		opt := Options{K: k, Background: true}.withDefaults()
		for _, p := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("K=%d/P=%d", k, p), func(b *testing.B) {
				st := newEMState(net, root, opt.K, opt, rand.New(rand.NewSource(52)))
				o := par.Opts{P: p}
				// The first sweep allocates the per-chunk accumulators.
				if err := st.sweep(false, o); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := st.sweep(false, o); err != nil {
						b.Fatal(err)
					}
				}
				links := float64(st.linkOff[len(st.pairs)])
				b.ReportMetric(links*float64(b.N)/b.Elapsed().Seconds(), "links/s")
			})
		}
	}
}
