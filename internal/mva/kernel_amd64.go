package mva

// slowdowns is the production block kernel, chosen once from the CPU: the
// AVX2 kernel where the processor and the operating system support 256-bit
// vectors, the portable one elsewhere.
var slowdowns = pickKernel()

func pickKernel() blockKernel {
	if hasAVX2() {
		return slowdownsAVX2
	}
	return slowdownsGo
}

// hasAVX2 reports whether AVX2 instructions may run: the CPU implements
// AVX and AVX2, and the OS saves the YMM registers across context switches
// (OSXSAVE set, XCR0 enabling the SSE and AVX state).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// slowdownsAVX2 is the AVX2 blockKernel. It checks the shape the assembly
// trusts; the sweep always passes a well-formed one.
func slowdownsAVX2(out, w, rho []float64, servers float64) {
	if len(out)%4 != 0 || len(w) != len(out)*len(rho) {
		panic("mva: misshapen weight blocks")
	}
	if len(out) == 0 {
		return
	}
	blockSlowdownsAVX2(&out[0], &w[0], &rho[0], len(out)/4, len(rho), servers)
}

// blockSlowdownsAVX2 runs the blockKernel contract over nblk blocks of
// n-task rows, two blocks per pass: for each j it broadcasts ρ_j and adds
// one VMULPD product per block into that block's even-j or odd-j
// accumulator (no FMA), then finishes with even + odd, + 1, / servers and
// the clamp at 1 — per lane the scalar kernel's operation sequence.
//
//go:noescape
func blockSlowdownsAVX2(out, w, rho *float64, nblk, n int, servers float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
