package mva

import "testing"

// testKernels lists every block kernel this machine can run.
func testKernels(t testing.TB) []namedKernel {
	ks := []namedKernel{{"go", slowdownsGo}}
	if hasAVX2() {
		return append(ks, namedKernel{"avx2", slowdownsAVX2})
	}
	t.Log("no AVX2 on this CPU: only the portable kernel is checked")
	return ks
}
