//go:build !purego

package vecmath

// kernelF32x8 says l2f32x8 is the SSE2 kernel, whose partial sums equal
// scalarL2F32x8's bit for bit.
const kernelF32x8 = true
