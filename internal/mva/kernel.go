package mva

// blockKernel computes the contention slowdowns of whole blocks of weight
// rows at one center: for each row r of the len(out)/4 blocks in w (the
// blocked OverlapInput.Weights layout, 4·len(rho) entries per block),
//
//	out[r] = max(1, (1 + (even_r + odd_r)) / servers)
//
// where even_r accumulates w_rj·ρ_j over even j and odd_r over odd j, each
// in increasing j with one rounding per product and per sum. Fixing that
// order is what makes every implementation, scalar or vector, produce the
// same bits for a row.
type blockKernel func(out, w, rho []float64, servers float64)

// slowdownsGo is the portable blockKernel: the four lanes of a block walk
// the same j-major layout the vector kernel loads. The explicit float64
// conversions round each product before it is added, so the compiler
// cannot fuse them into FMAs on architectures that have them.
func slowdownsGo(out, w, rho []float64, servers float64) {
	n := len(rho)
	for b := 0; b+4 <= len(out); b += 4 {
		blk := w[b*n : (b+4)*n]
		var e0, e1, e2, e3, o0, o1, o2, o3 float64
		j := 0
		for ; j+1 < n; j += 2 {
			x := blk[4*j : 4*j+8 : 4*j+8]
			r0, r1 := rho[j], rho[j+1]
			e0 += float64(x[0] * r0)
			e1 += float64(x[1] * r0)
			e2 += float64(x[2] * r0)
			e3 += float64(x[3] * r0)
			o0 += float64(x[4] * r1)
			o1 += float64(x[5] * r1)
			o2 += float64(x[6] * r1)
			o3 += float64(x[7] * r1)
		}
		if j < n {
			x := blk[4*j : 4*j+4 : 4*j+4]
			r0 := rho[j]
			e0 += float64(x[0] * r0)
			e1 += float64(x[1] * r0)
			e2 += float64(x[2] * r0)
			e3 += float64(x[3] * r0)
		}
		o := out[b : b+4 : b+4]
		o[0] = slowdown(e0, o0, servers)
		o[1] = slowdown(e1, o1, servers)
		o[2] = slowdown(e2, o2, servers)
		o[3] = slowdown(e3, o3, servers)
	}
}

// slowdown finishes one row: the processor-sharing inflation of its
// arrival sum over the center's servers, never below 1 (a NaN passes
// through, as the comparison is false).
func slowdown(even, odd, servers float64) float64 {
	s := (1 + (even + odd)) / servers
	if s < 1 {
		s = 1
	}
	return s
}
