package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestNewAndSize(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 || a.Dims() != 3 {
		t.Fatalf("size=%d dims=%d", a.Size(), a.Dims())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New not zeroed")
		}
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapePreservesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	if b.At(2, 1) != 6 {
		t.Fatalf("reshape lost data: %v", b)
	}
	b.Set(0, 0, 99)
	if a.At(0, 0) != 99 {
		t.Fatal("reshape should share storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 7
	if a.Data[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b).Data; got[1] != 10 {
		t.Errorf("Mul = %v", got)
	}
	if got := Scale(a, 2).Data; got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
}

func TestAddInPlaceAndScaled(t *testing.T) {
	a := FromSlice([]float64{1, 1}, 2)
	b := FromSlice([]float64{2, 3}, 2)
	AddInPlace(a, b)
	if a.Data[1] != 4 {
		t.Errorf("AddInPlace = %v", a.Data)
	}
	AddScaledInPlace(a, -0.5, b)
	if a.Data[0] != 2 || a.Data[1] != 2.5 {
		t.Errorf("AddScaledInPlace = %v", a.Data)
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float64{-1, 2}, 2)
	r := Apply(a, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	})
	if r.Data[0] != 0 || r.Data[1] != 2 {
		t.Errorf("Apply(relu) = %v", r.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	r := AddRowVector(a, []float64{10, 20})
	want := []float64{11, 22, 13, 24}
	for i := range want {
		if r.Data[i] != want[i] {
			t.Fatalf("AddRowVector = %v, want %v", r.Data, want)
		}
	}
}

func TestSumRowsAndReductions(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	sr := SumRows(a)
	if sr[0] != 4 || sr[1] != 6 {
		t.Errorf("SumRows = %v", sr)
	}
	if SumAll(a) != 10 || MeanAll(a) != 2.5 || MaxAll(a) != 4 {
		t.Error("reductions wrong")
	}
	if n := Norm2(FromSlice([]float64{3, 4}, 2)); n != 5 {
		t.Errorf("Norm2 = %v", n)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := mathx.NewRNG(1)
	a := New(5, 5).RandNorm(rng, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	c := MatMul(a, id)
	for i := range a.Data {
		if math.Abs(c.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatal("A·I != A")
		}
	}
}

// TestMatMulParallelMatchesSerial forces the parallel path and compares with
// a naive serial product.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := mathx.NewRNG(2)
	m, k, n := 80, 70, 90 // m*n*k > parallelThreshold
	a := New(m, k).RandNorm(rng, 1)
	b := New(k, n).RandNorm(rng, 1)
	got := MatMul(a, b)
	for i := 0; i < m; i += 17 {
		for j := 0; j < n; j += 13 {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			if math.Abs(got.At(i, j)-s) > 1e-9 {
				t.Fatalf("parallel MatMul mismatch at (%d,%d): %v vs %v", i, j, got.At(i, j), s)
			}
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestTransposeKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose = %v", at)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := mathx.NewRNG(3)
	f := func(seed uint8) bool {
		r := mathx.NewRNG(uint64(seed) + rng.Uint64()%1000)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := New(m, k).RandNorm(r, 1)
		b := New(k, n).RandNorm(r, 1)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	s := SoftmaxRows(a)
	for i := 0; i < 2; i++ {
		sum := 0.0
		for _, v := range s.Row(i) {
			sum += v
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax value out of range: %v", v)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Second row is uniform.
	for _, v := range s.Row(1) {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform row wrong: %v", s.Row(1))
		}
	}
}

func TestLogSoftmaxConsistent(t *testing.T) {
	a := FromSlice([]float64{0.3, -1, 2, 5}, 1, 4)
	ls := LogSoftmaxRows(a)
	sm := SoftmaxRows(a)
	for i := range ls.Data {
		if math.Abs(math.Exp(ls.Data[i])-sm.Data[i]) > 1e-12 {
			t.Fatal("exp(logsoftmax) != softmax")
		}
	}
}

func TestRandNormStd(t *testing.T) {
	rng := mathx.NewRNG(5)
	a := New(10000).RandNorm(rng, 0.02)
	if v := mathx.Std(a.Data); math.Abs(v-0.02) > 0.002 {
		t.Errorf("std = %v, want ~0.02", v)
	}
}

func TestFillZero(t *testing.T) {
	a := New(3).Fill(7)
	if a.Data[2] != 7 {
		t.Fatal("Fill failed")
	}
	a.Zero()
	if a.Data[0] != 0 {
		t.Fatal("Zero failed")
	}
}

func TestEnsureReusesAndGrows(t *testing.T) {
	var s *Tensor
	a := Ensure(&s, 4, 8)
	if a != s || a.Shape[0] != 4 || a.Shape[1] != 8 || len(a.Data) != 32 {
		t.Fatalf("Ensure from nil: %v (len %d)", a.Shape, len(a.Data))
	}
	backing := &a.Data[0]
	// Shrinking the view reuses the backing array.
	b := Ensure(&s, 2, 8)
	if b.Shape[0] != 2 || len(b.Data) != 16 || &b.Data[0] != backing {
		t.Fatalf("Ensure shrink reallocated or misshaped: %v", b.Shape)
	}
	// Growing back within capacity also reuses it.
	c := Ensure(&s, 4, 8)
	if &c.Data[0] != backing {
		t.Fatal("Ensure regrow within capacity reallocated")
	}
	// Beyond capacity allocates fresh zeroed storage.
	d := Ensure(&s, 5, 8)
	if &d.Data[0] == backing || len(d.Data) != 40 {
		t.Fatalf("Ensure growth beyond capacity kept old storage (len %d)", len(d.Data))
	}
	for i, v := range d.Data {
		if v != 0 {
			t.Fatalf("fresh Ensure storage not zeroed at %d", i)
		}
	}
}
