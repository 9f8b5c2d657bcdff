package expt

import (
	"strconv"
	"testing"
)

// BenchmarkLatticeSweep is the headline experiment benchmark: the full
// Figure 1 lattice check, exhaustively over the one-location universe,
// through the symmetry-reduced fused-pattern sweep. n=4 is the default
// cmd/lattice size; n=5 is one size up (a ~48× larger universe). Both
// run serially so the rows are scheduling-free.
func BenchmarkLatticeSweep(b *testing.B) {
	for _, n := range []int{4, 5} {
		b.Run("reduced/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := RunLatticeReduced(n, 1, 1, nil)
				if !rep.AllOK() {
					b.Fatalf("lattice mismatch:\n%s", rep)
				}
			}
		})
	}
}
