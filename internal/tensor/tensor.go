// Package tensor implements the dense n-dimensional float64 tensor engine
// that substitutes for the GPU tensor stack the paper's systems run on.
// It provides construction, views, elementwise kernels, reductions, and a
// parallel matrix multiply; package autograd builds backpropagation on top.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/mathx"
)

// Tensor is a dense row-major tensor. Data is shared by views; use Clone for
// an independent copy.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic("tensor: negative dimension")
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// Ensure resizes *t to a rows×cols matrix view, reusing the backing array
// when its capacity allows and allocating a fresh tensor otherwise (also
// when *t is nil). Reused storage keeps its stale contents — callers
// overwrite every element — so steady-state scratch arenas that Ensure the
// same shapes every call never touch the heap. It returns *t for chaining.
func Ensure(t **Tensor, rows, cols int) *Tensor {
	if *t == nil || cap((*t).Data) < rows*cols {
		*t = New(rows, cols)
		return *t
	}
	(*t).Shape[0], (*t).Shape[1] = rows, cols
	(*t).Data = (*t).Data[:rows*cols]
	return *t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (no copy). It panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, t.Size(), len(data)))
	}
	return t
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Dims returns the number of axes.
func (t *Tensor) Dims() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if v.Size() != t.Size() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v size mismatch", t.Shape, shape))
	}
	return v
}

// At returns the element at the given multi-index of a 2-D tensor.
func (t *Tensor) At(i, j int) float64 {
	if len(t.Shape) != 2 {
		panic("tensor: At requires a 2-D tensor")
	}
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns the element at (i, j) of a 2-D tensor.
func (t *Tensor) Set(i, j int, v float64) {
	if len(t.Shape) != 2 {
		panic("tensor: Set requires a 2-D tensor")
	}
	t.Data[i*t.Shape[1]+j] = v
}

// Row returns a shared-storage view of row i of a 2-D tensor.
func (t *Tensor) Row(i int) []float64 {
	if len(t.Shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Zero sets every element to 0 and returns t.
func (t *Tensor) Zero() *Tensor { return t.Fill(0) }

// RandNorm fills t with normal variates of the given std (mean 0), the
// initialization scheme of the paper's §6 (var ~ 1/p), and returns t.
func (t *Tensor) RandNorm(rng *mathx.RNG, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = rng.Norm() * std
	}
	return t
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	if t.Size() > 64 {
		return fmt.Sprintf("Tensor(shape=%v, %d elems)", t.Shape, t.Size())
	}
	return fmt.Sprintf("Tensor(shape=%v, data=%v)", t.Shape, t.Data)
}

// ---- Elementwise kernels ----

func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	assertSameShape("Add", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	assertSameShape("Sub", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Mul returns the Hadamard (elementwise) product a*b.
func Mul(a, b *Tensor) *Tensor {
	assertSameShape("Mul", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns a*s elementwise.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// AddInPlace accumulates b into a (a += b).
func AddInPlace(a, b *Tensor) {
	assertSameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AddScaledInPlace accumulates s*b into a (a += s*b), the axpy kernel used
// by the optimizers (paper Eq. 16).
func AddScaledInPlace(a *Tensor, s float64, b *Tensor) {
	assertSameShape("AddScaledInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += s * b.Data[i]
	}
}

// Apply returns f applied elementwise to a.
func Apply(a *Tensor, f func(float64) float64) *Tensor {
	out := New(a.Shape...)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// AddRowVector adds vector v (length = last dim) to every row of the 2-D
// tensor a — the broadcasting pattern used for biases and positional sums.
func AddRowVector(a *Tensor, v []float64) *Tensor {
	if len(a.Shape) != 2 || a.Shape[1] != len(v) {
		panic("tensor: AddRowVector shape mismatch")
	}
	out := a.Clone()
	for i := 0; i < a.Shape[0]; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
	return out
}

// ---- Reductions ----

// SumAll returns the sum of all elements.
func SumAll(a *Tensor) float64 { return mathx.Sum(a.Data) }

// MeanAll returns the mean of all elements.
func MeanAll(a *Tensor) float64 { return mathx.Mean(a.Data) }

// MaxAll returns the largest element.
func MaxAll(a *Tensor) float64 {
	_, v := mathx.ArgMax(a.Data)
	return v
}

// SumRows sums a 2-D tensor over its rows, returning a length-Cols vector.
// This is the gradient-accumulation pattern for broadcast biases.
func SumRows(a *Tensor) []float64 {
	if len(a.Shape) != 2 {
		panic("tensor: SumRows requires 2-D")
	}
	out := make([]float64, a.Shape[1])
	for i := 0; i < a.Shape[0]; i++ {
		row := a.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// Norm2 returns the Euclidean norm of all elements (used for gradient
// clipping).
func Norm2(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ---- Matrix multiply ----

// parallelThreshold is the work size above which MatMul fans out across
// goroutines. Tuned so tiny test matrices stay single-threaded.
const parallelThreshold = 64 * 64 * 64

// MatMul returns the matrix product of 2-D tensors a (m×k) and b (k×n).
// Large products are computed in parallel across row blocks; this is the
// "given sufficiently many processors" parallelism of the paper's §6
// discussion of transformer vs RNN cost.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %v · %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	mulRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n]
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Data[kk*n : (kk+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
	if m*n*k < parallelThreshold || m < 2 {
		mulRange(0, m)
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: Transpose requires 2-D")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// TransposePack returns the transpose of a 2-D tensor via a cache-blocked
// tiled copy: both the source and destination are touched one tile at a time
// so neither side strides through memory for large matrices. The result is
// element-for-element identical to Transpose — this is the layout-packing
// step the transformer's inference compiler runs on every weight matrix.
func TransposePack(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: TransposePack requires 2-D")
	}
	const tile = 32
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i0 := 0; i0 < m; i0 += tile {
		ih := i0 + tile
		if ih > m {
			ih = m
		}
		for j0 := 0; j0 < n; j0 += tile {
			jh := j0 + tile
			if jh > n {
				jh = n
			}
			for i := i0; i < ih; i++ {
				row := a.Data[i*n:]
				for j := j0; j < jh; j++ {
					out.Data[j*m+i] = row[j]
				}
			}
		}
	}
	return out
}

// ---- Softmax / log-softmax over rows ----

// SoftmaxRows applies a stable softmax independently to each row of a 2-D
// tensor (the attention weighting of Eq. 14 and output distribution of
// Eq. 8).
func SoftmaxRows(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: SoftmaxRows requires 2-D")
	}
	out := New(a.Shape...)
	for i := 0; i < a.Shape[0]; i++ {
		src := a.Row(i)
		dst := out.Row(i)
		_, m := mathx.ArgMax(src)
		var s float64
		for j, v := range src {
			e := math.Exp(v - m)
			dst[j] = e
			s += e
		}
		for j := range dst {
			dst[j] /= s
		}
	}
	return out
}

// LogSoftmaxRows applies a stable log-softmax to each row.
func LogSoftmaxRows(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: LogSoftmaxRows requires 2-D")
	}
	out := New(a.Shape...)
	for i := 0; i < a.Shape[0]; i++ {
		src := a.Row(i)
		dst := out.Row(i)
		lse := mathx.LogSumExp(src)
		for j, v := range src {
			dst[j] = v - lse
		}
	}
	return out
}
