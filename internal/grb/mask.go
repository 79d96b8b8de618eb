package grb

import "slices"

// Masks limit the scope of an operation's output (paper §III-C). A mask can
// be valued (entry must exist and be truthy) or structural (entry must
// exist), and either sense can be complemented. Replace-vs-merge semantics
// live on the Descriptor, not the mask itself, matching the C API.
//
// Masks are type-erased: a bool matrix can mask an int64 result without
// extra type parameters at the call site. A vector's mask is the one row
// of the store it is, so one Mask serves both shapes.

// maskSource is implemented by every Matrix and Vector, of any T: the
// store's methods.
type maskSource interface {
	shape() (int, int)
	Wait()
	maskHas(i, j int) (exists, truthyVal bool)
	maskRowIter(i, lo, hi int, f func(j int, truthyVal bool))
	maskRow(i int) (idx []int, at int)
	maskTruthy(p int) bool
	maskIsDense() bool
	rowPtr() []int
}

// Mask is a mask specification: ⟨M⟩, ⟨¬M⟩, ⟨s(M)⟩ or ⟨¬s(M)⟩. The zero
// value means "no mask".
type Mask struct {
	src        maskSource
	Comp       bool
	Structural bool
}

// VMask is the mask of a vector operation: a Mask whose source is a
// vector.
type VMask = Mask

// NoMask is the absent mask.
var NoMask = Mask{}

// NoVMask is the absent mask, named for vector calls.
var NoVMask = NoMask

// MaskOf builds a valued mask ⟨M⟩ from a matrix.
func MaskOf[T Value](m *Matrix[T]) Mask {
	if m == nil {
		return Mask{}
	}
	return Mask{src: m}
}

// StructMaskOf builds a structural mask ⟨s(M)⟩.
func StructMaskOf[T Value](m *Matrix[T]) Mask { return MaskOf(m).Structure() }

// VMaskOf builds a valued vector mask ⟨m⟩.
func VMaskOf[T Value](v *Vector[T]) VMask {
	if v == nil {
		return Mask{}
	}
	return Mask{src: v}
}

// StructVMaskOf builds ⟨s(m)⟩.
func StructVMaskOf[T Value](v *Vector[T]) VMask { return VMaskOf(v).Structure() }

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

// dense reports whether the allowed positions are as many as the output
// holds, more or less: no mask, a complemented one, a bitmap/full source.
func (mk Mask) dense() bool { return !mk.Exists() || mk.Comp || mk.src.maskIsDense() }

// walkable reports whether the allowed positions are a sparse list, which a
// call over bitmap/full operands walks instead of every position.
func (mk Mask) walkable() bool { return mk.enumerable() && !mk.src.maskIsDense() }

// walk calls f(j) for every allowed column of row i, ascending. Only
// valid when walkable().
func (mk Mask) walk(i int, f func(j int)) {
	idx, at := mk.src.maskRow(i)
	for k, j := range idx {
		if mk.Structural || mk.src.maskTruthy(at+k) {
			f(j)
		}
	}
}

// allowed reports whether position (i,j) may be written. The mask source
// must be finished (check does this).
func (mk Mask) allowed(i, j int) bool {
	if !mk.Exists() {
		return true
	}
	ex, tv := mk.src.maskHas(i, j)
	return (ex && mk.selects(tv)) != mk.Comp
}

// allow answers "may (i, j) be written?" for one block of rows of one call,
// in one of two modes chosen per call from the input's format. A call
// driven by a sparse input probes the mask per entry — O(1) on a
// bitmap/full source, a search of the row on a sparse one — so it never
// touches a row's full width. A call that visits every position of a row
// anyway (its input is bitmap or full) scatters the mask's row once into a
// pooled byte slab.
type allow struct {
	mk      Mask
	slab    *[]int8 // nil: probe
	bytes   []int8  // *slab
	touched []int   // the slab bytes set, for a sparse source; nil: clear all
	mark    func(j int, truthyVal bool)
}

// allowFor prepares the lookup for rows nc wide, scattering each row when
// scatter is set (and a mask is present). Call release when done.
func (mk Mask) allowFor(nc int, scatter bool) allow {
	a := allow{mk: mk}
	if scatter && mk.Exists() {
		a.slab = getSlice[int8](nc)
		a.bytes = *a.slab
	}
	return a
}

// load prepares columns [lo, hi) of row i.
func (a *allow) load(i, lo, hi int) {
	if a.slab == nil {
		return
	}
	if a.mark == nil {
		if !a.mk.src.maskIsDense() {
			a.touched = make([]int, 0, 16)
		}
		// One row visitor per block: made per row, it would cost a heap
		// object a row.
		a.mark = func(j int, tv bool) {
			if a.mk.selects(tv) {
				a.bytes[j] = 1
				if a.touched != nil {
					a.touched = append(a.touched, j)
				}
			}
		}
	} else {
		a.clear()
	}
	a.mk.src.maskRowIter(i, lo, hi, a.mark)
}

func (a *allow) ok(i, j int) bool {
	if a.bytes != nil {
		return (a.bytes[j] != 0) != a.mk.Comp
	}
	return a.mk.allowed(i, j)
}

// clear zeroes the slab bytes set.
func (a *allow) clear() {
	if a.touched == nil {
		clear(a.bytes)
		return
	}
	for _, j := range a.touched {
		a.bytes[j] = 0
	}
	a.touched = a.touched[:0]
}

func (a *allow) release() {
	if a.slab != nil {
		a.clear()
		putSlice(a.slab)
		a.slab, a.bytes = nil, nil
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

// maskRowIter visits the entries of row i in columns [lo, hi).
func (s *store[T]) maskRowIter(i, lo, hi int, f func(j int, truthyVal bool)) {
	if s.format != FormatSparse {
		base := i * s.nc
		for j := lo; j < hi; j++ {
			if s.denseHas(base + j) {
				f(j, truthy(s.val[base+j]))
			}
		}
		return
	}
	// Each binary search runs only when the row crosses that bound.
	row, base := s.idx[s.ptr[i]:s.ptr[i+1]], s.ptr[i]
	if len(row) > 0 && row[0] < lo {
		a, _ := slices.BinarySearch(row, lo)
		row, base = row[a:], base+a
	}
	if len(row) > 0 && row[len(row)-1] >= hi {
		b, _ := slices.BinarySearch(row, hi)
		row = row[:b]
	}
	for p, j := range row {
		f(j, truthy(s.val[base+p]))
	}
}

// maskRow is row i of a sparse store: its columns, and where the first
// lies in val.
func (s *store[T]) maskRow(i int) ([]int, int) { return s.idx[s.ptr[i]:s.ptr[i+1]], s.ptr[i] }

func (s *store[T]) maskTruthy(p int) bool { return truthy(s.val[p]) }

func (s *store[T]) maskIsDense() bool { return s.format != FormatSparse }
