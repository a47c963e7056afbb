package sqt

import "testing"

func TestSQT8LosslessExhaustive(t *testing.T) {
	// The multiplier-less conversion must be bit-exact over the whole domain:
	// every difference of two values in [-255, 255].
	tab := NewSQT8()
	for d := int32(-MaxDiff8); d <= MaxDiff8; d++ {
		if got, want := tab.Square(d), uint32(d*d); got != want {
			t.Fatalf("SQT8.Square(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestSQT8FitsWRAM(t *testing.T) {
	tab := NewSQT8()
	const wram = 64 * 1024
	size := len(tab.table) * 4
	if size >= wram {
		t.Fatalf("SQT8 is %d bytes, must fit far below 64KB WRAM", size)
	}
	if size != (MaxDiff8+1)*4 {
		t.Fatalf("unexpected table size %d", size)
	}
}

func BenchmarkSQT8Square(b *testing.B) {
	tab := NewSQT8()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += tab.Square(int32(i % 511))
	}
	_ = sink
}

func BenchmarkMulVsSQT(b *testing.B) {
	// Host-side sanity benchmark: on a CPU the multiply wins; on a DPU the
	// table wins because mul costs 32 cycles. The simulator models this; the
	// benchmark just documents both paths execute.
	tab := NewSQT8()
	b.Run("mul", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			d := int32(i%511) - 255
			sink += uint32(d * d)
		}
		_ = sink
	})
	b.Run("sqt", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink += tab.Square(int32(i%511) - 255)
		}
		_ = sink
	})
}
