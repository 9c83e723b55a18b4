package sim

// The batch kernel writes its per-point outputs as structure-of-arrays
// columns: one contiguous float64 run per output quantity, each cohort
// owning an adjacent span of every column. newColumns carves the k columns
// out of a single backing allocation, so a whole batch costs one block
// allocation (plus the int64 DRAM column) instead of one result struct's
// worth of pointer-chased stores per point, and the per-cohort passes are
// simple induction loops over adjacent memory the compiler can vectorize.
//
// The scalar path's FlowSecs slices are carved by the float slab in
// internal/dataflow (see MeasureFlowsInto), next to the flow slab they ride
// with, or refilled in place in Request.Totals' one reused slot.
func newColumns(n, k int) [][]float64 {
	cols := make([][]float64, k)
	if n == 0 {
		return cols
	}
	buf := make([]float64, n*k)
	for i := range cols {
		cols[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return cols
}
