package grb

// Masks limit the scope of an operation's output (paper §III-C). A mask can
// be valued (entry must exist and be truthy) or structural (entry must
// exist), and either sense can be complemented. Replace-vs-merge semantics
// live on the Descriptor, not the mask itself, matching the C API.
//
// Masks are type-erased: a bool matrix can mask an int64 result without
// extra type parameters at the call site.

// maskSource is implemented by every Matrix and Vector, of any T: the
// store's methods, a vector's mask being its one row.
type maskSource interface {
	shape() (int, int)
	Wait()
	maskHas(i, j int) (exists, truthyVal bool)
	maskRowIter(i int, f func(j int, truthyVal bool))
	maskIsDense() bool
	rowPtr() []int
}

// Mask is a matrix mask specification: ⟨M⟩, ⟨¬M⟩, ⟨s(M)⟩ or ⟨¬s(M)⟩.
// The zero value means "no mask".
type Mask struct {
	src        maskSource
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
	mr, mc := mk.src.shape()
	if mr != nr || mc != nc {
		return errf(DimensionMismatch, "%s: mask is %dx%d, output is %dx%d", op, mr, mc, nr, nc)
	}
	mk.src.Wait()
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
	src        maskSource
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
	if _, mn := mk.src.shape(); mn != n {
		return errf(DimensionMismatch, "%s: mask length %d, output length %d", op, mn, n)
	}
	mk.src.Wait()
	return nil
}

func (mk VMask) selects(truthyVal bool) bool { return mk.Structural || truthyVal }

func (mk VMask) allowed(i int) bool {
	if !mk.Exists() {
		return true
	}
	ex, tv := mk.src.maskHas(0, i)
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
	mk.src.maskRowIter(0, func(i int, tv bool) {
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
// store implements maskSource.

// maskHas is get by hand, a call shorter: a mask is probed once per entry.
func (s *store[T]) maskHas(i, j int) (bool, bool) {
	if s.format != FormatSparse {
		p := i*s.nc + j
		return s.denseHas(p), s.denseHas(p) && truthy(s.val[p])
	}
	if p, ok := s.findSparse(i, j); ok {
		return true, truthy(s.val[p])
	}
	return false, false
}

func (s *store[T]) maskRowIter(i int, f func(j int, truthyVal bool)) {
	switch s.format {
	case FormatSparse:
		for p := s.ptr[i]; p < s.ptr[i+1]; p++ {
			f(s.idx[p], truthy(s.val[p]))
		}
	default:
		base := i * s.nc
		for j := 0; j < s.nc; j++ {
			if s.denseHas(base + j) {
				f(j, truthy(s.val[base+j]))
			}
		}
	}
}

func (s *store[T]) maskIsDense() bool { return s.format != FormatSparse }
