package tensor

import (
	"testing"

	"repro/internal/mathx"
)

// TestTransposePackMatchesTranspose checks the tiled transpose across
// shapes that cover partial edge tiles.
func TestTransposePackMatchesTranspose(t *testing.T) {
	rng := mathx.NewRNG(8)
	for _, s := range [][2]int{{1, 1}, {3, 7}, {32, 32}, {33, 31}, {100, 5}, {64, 200}} {
		a := New(s[0], s[1]).RandNorm(rng, 1)
		want := Transpose(a)
		got := TransposePack(a)
		if !got.SameShape(want) {
			t.Fatalf("shape %v: TransposePack shape %v", s, got.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v elem %d differs", s, i)
			}
		}
	}
}
