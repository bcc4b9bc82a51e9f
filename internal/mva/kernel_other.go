//go:build !amd64

package mva

// slowdowns is the production block kernel; without an assembly kernel
// for this architecture it is the portable one.
var slowdowns blockKernel = slowdownsGo
