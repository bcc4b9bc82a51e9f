//go:build !amd64

package mva

import "testing"

// testKernels lists every block kernel this architecture has.
func testKernels(testing.TB) []namedKernel {
	return []namedKernel{{"go", slowdownsGo}}
}
