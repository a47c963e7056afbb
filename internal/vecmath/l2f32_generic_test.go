//go:build !amd64 || purego

package vecmath

// kernelF32x8 says l2f32x8 is the SSE2 kernel; here it is one abandoning
// scalar scan a row, which stops each row on its own.
const kernelF32x8 = false
