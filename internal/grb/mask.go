package grb

// Masks limit the scope of an operation's output (paper §III-C). A mask can
// be valued (entry must exist and be truthy) or structural (entry must
// exist), and either sense can be complemented. Replace-vs-merge semantics
// live on the Descriptor, not the mask itself, matching the C API.
//
// Masks are type-erased: a bool matrix can mask an int64 result without
// extra type parameters at the call site.

// matrixMaskSource is implemented by *Matrix[T] for every T.
type matrixMaskSource interface {
	Dims() (int, int)
	maskHas(i, j int) (exists, truthyVal bool)
	maskRowIter(i int, f func(j int, truthyVal bool))
	finishMask()
	maskIsDense() bool
	rowPtr() []int
}

// vectorMaskSource is implemented by *Vector[T] for every T.
type vectorMaskSource interface {
	Size() int
	maskHasV(i int) (exists, truthyVal bool)
	maskIterV(f func(i int, truthyVal bool))
	finishMaskV()
	maskIsDenseV() bool
}

// Mask is a matrix mask specification: ⟨M⟩, ⟨¬M⟩, ⟨s(M)⟩ or ⟨¬s(M)⟩.
// The zero value means "no mask".
type Mask struct {
	src        matrixMaskSource
	Comp       bool
	Structural bool
}

// NoMask is the absent matrix mask.
var NoMask = Mask{}

// MaskOf builds a valued mask ⟨M⟩ from a matrix.
func MaskOf[T Value](m *Matrix[T]) Mask {
	if m == nil {
		return Mask{}
	}
	return Mask{src: m}
}

// StructMaskOf builds a structural mask ⟨s(M)⟩.
func StructMaskOf[T Value](m *Matrix[T]) Mask { mk := MaskOf(m); mk.Structural = true; return mk }

// Not complements the mask: ⟨¬M⟩ / ⟨¬s(M)⟩.
func (mk Mask) Not() Mask { mk.Comp = !mk.Comp; return mk }

// Structure makes the mask structural: ⟨s(M)⟩.
func (mk Mask) Structure() Mask { mk.Structural = true; return mk }

// Exists reports whether a mask is present.
func (mk Mask) Exists() bool { return mk.src != nil }

// check validates the mask shape against the output shape.
func (mk Mask) check(nr, nc int, op string) error {
	if !mk.Exists() {
		return nil
	}
	mr, mc := mk.src.Dims()
	if mr != nr || mc != nc {
		return errf(DimensionMismatch, "%s: mask is %dx%d, output is %dx%d", op, mr, mc, nr, nc)
	}
	mk.src.finishMask()
	return nil
}

// selects reports whether a present entry with the given truthiness is
// selected by the mask's value convention (before complement).
func (mk Mask) selects(truthyVal bool) bool { return mk.Structural || truthyVal }

// enumerable reports whether the set of allowed positions can be iterated
// directly from the mask's entries (non-complemented masks only).
func (mk Mask) enumerable() bool { return mk.Exists() && !mk.Comp }

// rowIterAllowed calls f(j) for every allowed column of row i, ascending.
// Only valid when enumerable().
func (mk Mask) rowIterAllowed(i int, f func(j int)) {
	mk.src.maskRowIter(i, func(j int, tv bool) {
		if mk.selects(tv) {
			f(j)
		}
	})
}

// allowed reports whether position (i,j) may be written. The mask source
// must be finished (check does this).
func (mk Mask) allowed(i, j int) bool {
	if !mk.Exists() {
		return true
	}
	ex, tv := mk.src.maskHas(i, j)
	sel := ex && mk.selects(tv)
	if mk.Comp {
		return !sel
	}
	return sel
}

// VMask is the vector analogue of Mask.
type VMask struct {
	src        vectorMaskSource
	Comp       bool
	Structural bool
}

// NoVMask is the absent vector mask.
var NoVMask = VMask{}

// VMaskOf builds a valued vector mask ⟨m⟩.
func VMaskOf[T Value](v *Vector[T]) VMask {
	if v == nil {
		return VMask{}
	}
	return VMask{src: v}
}

// StructVMaskOf builds ⟨s(m)⟩.
func StructVMaskOf[T Value](v *Vector[T]) VMask { mk := VMaskOf(v); mk.Structural = true; return mk }

// Not complements the vector mask.
func (mk VMask) Not() VMask { mk.Comp = !mk.Comp; return mk }

// Structure makes the vector mask structural.
func (mk VMask) Structure() VMask { mk.Structural = true; return mk }

// Exists reports whether a mask is present.
func (mk VMask) Exists() bool { return mk.src != nil }

func (mk VMask) check(n int, op string) error {
	if !mk.Exists() {
		return nil
	}
	if mk.src.Size() != n {
		return errf(DimensionMismatch, "%s: mask length %d, output length %d", op, mk.src.Size(), n)
	}
	mk.src.finishMaskV()
	return nil
}

func (mk VMask) selects(truthyVal bool) bool { return mk.Structural || truthyVal }

func (mk VMask) allowed(i int) bool {
	if !mk.Exists() {
		return true
	}
	ex, tv := mk.src.maskHasV(i)
	sel := ex && mk.selects(tv)
	if mk.Comp {
		return !sel
	}
	return sel
}

// vAllow answers "may position i be written?" for one vector call. A call
// that visits all n positions anyway (its input is bitmap or full) reads a
// pooled byte array filled once from the mask; a call driven by a sparse
// input probes the mask per entry instead — O(1) on a dense mask source,
// O(log nnz) on a sparse one — so it never touches n.
type vAllow struct {
	mk    VMask
	slab  *[]int8
	dense []int8
}

// allowFor builds the lookup; denseInput selects the array form. The mask
// is read while the call computes its result, before the output (which
// may be the mask's own source) is written. Call release when done.
func (mk VMask) allowFor(n int, denseInput bool) vAllow {
	a := vAllow{mk: mk}
	if !mk.Exists() || !denseInput {
		return a
	}
	a.slab = getSlab(n)
	a.dense = *a.slab
	if mk.Comp {
		for i := range a.dense {
			a.dense[i] = 1
		}
	}
	var sel int8
	if !mk.Comp {
		sel = 1
	}
	mk.src.maskIterV(func(i int, tv bool) {
		if mk.selects(tv) {
			a.dense[i] = sel
		}
	})
	return a
}

func (a *vAllow) ok(i int) bool {
	if a.dense != nil {
		return a.dense[i] != 0
	}
	return a.mk.src == nil || a.mk.allowed(i)
}

func (a *vAllow) release() {
	if a.slab != nil {
		clear(a.dense)
		putSlab(a.slab)
		a.slab, a.dense = nil, nil
	}
}

// ---------------------------------------------------------------------------
// Matrix implements matrixMaskSource.

func (m *Matrix[T]) maskHas(i, j int) (bool, bool) {
	switch m.format {
	case FormatFull:
		return true, truthy(m.val[i*m.nc+j])
	case FormatBitmap:
		p := i*m.nc + j
		if m.b[p] == 0 {
			return false, false
		}
		return true, truthy(m.val[p])
	default:
		if p, ok := m.findSparse(i, j); ok {
			return true, truthy(m.val[p])
		}
		return false, false
	}
}

func (m *Matrix[T]) maskRowIter(i int, f func(j int, truthyVal bool)) {
	switch m.format {
	case FormatSparse:
		for p := m.ptr[i]; p < m.ptr[i+1]; p++ {
			f(m.idx[p], truthy(m.val[p]))
		}
	default:
		base := i * m.nc
		for j := 0; j < m.nc; j++ {
			if m.format == FormatFull || m.b[base+j] != 0 {
				f(j, truthy(m.val[base+j]))
			}
		}
	}
}

func (m *Matrix[T]) finishMask() { m.Wait() }

func (m *Matrix[T]) maskIsDense() bool { return m.format != FormatSparse }

// ---------------------------------------------------------------------------
// Vector implements vectorMaskSource.

func (v *Vector[T]) maskHasV(i int) (bool, bool) {
	x, ok := v.get(i)
	return ok, ok && truthy(x)
}

func (v *Vector[T]) maskIterV(f func(i int, truthyVal bool)) {
	v.Iterate(func(i int, x T) { f(i, truthy(x)) })
}

func (v *Vector[T]) finishMaskV() { v.Wait() }

func (v *Vector[T]) maskIsDenseV() bool { return v.format != FormatSparse }
