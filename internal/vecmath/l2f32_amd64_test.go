//go:build !purego

package vecmath

import "testing"

// TestAVX2OffFollowsGODEBUG: the settings that turn AVX2 off for the Go
// runtime turn the AVX2 kernels off, the last one to name AVX2 winning.
func TestAVX2OffFollowsGODEBUG(t *testing.T) {
	for godebug, off := range map[string]bool{
		"":                         false,
		"cpu.avx2=off":             true,
		"cpu.all=off":              true,
		"gctrace=1,cpu.avx2=off":   true,
		"cpu.avx2=off,cpu.avx2=on": false,
		"cpu.all=off,cpu.avx2=on":  false,
		"cpu.avx=off":              false,
		"cpu.avx2=offish":          false,
	} {
		if got := avx2Off(godebug); got != off {
			t.Errorf("GODEBUG=%q: off %v, want %v", godebug, got, off)
		}
	}
}
