// Package grb is a pure-Go GraphBLAS: generic sparse matrices and vectors
// over arbitrary semirings, with the operation set of the GraphBLAS C API
// v1.3 (mxm, vxm, mxv, eWiseAdd, eWiseMult, extract, assign, apply, select,
// reduce, transpose, build, extractTuples, setElement, extractElement) and
// the mask/accumulator/descriptor machinery that modifies them.
//
// The package reproduces the SuiteSparse:GraphBLAS substrate features that
// the LAGraph paper's evaluation depends on:
//
//   - three storage formats — sparse (CSR), bitmap, and full — with
//     automatic, hysteretic switching by density (§VI-A of the paper credits
//     the bitmap format for the push/pull BFS and BC results);
//   - non-blocking-mode internals: pending operations (unassembled
//     insertions, and tombstones, the one form a sparse deletion takes)
//     and the lazy sort (jumbled rows), both assembled on demand by Wait;
//   - positional semirings such as any.secondi, where the multiplicative
//     operator returns an index of the pair rather than a value, and the
//     "any" monoid, which may pick an arbitrary reduction witness and
//     therefore lets kernels terminate a row reduction early.
//
// A call costs what its sparsest participant holds. The driver is chosen
// from what the call can see — formats, entry counts, output aliasing:
//
//	sparse ∩ bitmap/full                          walk the sparse side, probe the other and the mask
//	bitmap/full operands, sparse mask ⟨M⟩         walk the mask's row, probe the operands
//	C ⊙= sparse T, C = C ∪ sparse B, C bitmap/full, no mask    update C in place at the sparse entries
//	a sparse input, any mask                      probe the mask per entry (no row-wide allow array)
//	into a bitmap/full C, or a dense result       one pass by position into C's own arrays, C free to
//	  into an empty one                             alias an operand (the dense-output rule, writeback.go)
//	sparse ∘ sparse                               the one sorted merge (unionWalk)
//	MxM, push VxM (u a one-row A)                 saxpyKernel: scatter A(i,:)·B into a pooled accumulator
//	MxM by Bᵀ, pull MxV (u a one-row B)           dotRow: reduce A(i,:) ∩ B(j,:), early exit on any / terminal
//	pull MxV, the row reduce, the column gather   w(i) each on its own: run cuts w's one row by columns
//	pull MxV, PlusSecond / MinSecond / PlusPair,  the monomorphic loops of fastpath.go, chosen by the
//	  any mask, bitmap/full u                       constructor's identity, never by Semiring.Name
//	tuples into a store: the builders, Wait,      assemble: bucket by row, sort each row's run stably, fold a
//	  AssignVector's index list                     position's run in input order by dup, merge into the base
//
// Each rule has one body, for a matrix and a vector alike. A Vector is a
// store of one row (store.go), so the format conversions, the format
// policy, pending work and element access have one body for both types;
// a vector's mask is a Mask (VMask is the same type); and every result is
// written back by one engine (writeback.go): what C⟨M, r⟩ ⊙= T leaves at a
// position is settle, a bitmap/full output is updated at T's entries by
// foldAt, two ascending index lists are walked by unionWalk, and a T
// computed apart is merged by the store's maskAccum. ApplyV, SelectV,
// EWiseAddV, EWiseMultV, AssignVectorScalar and ExtractSubvector are their
// matrix operations called on the one row a vector is (Vector.asRow); a
// positional operator still sees a vector as a column, its entry i at
// (i, 0).
//
// Matrices are held by row. There is no separate CSC format: computations
// that need the reverse orientation take an explicitly transposed matrix,
// exactly as LAGraph caches G.AT.
package grb

// Value is the set of scalar types a Matrix or Vector may store. All are
// comparable, which the package uses for the "valued mask" convention: an
// entry is truthy iff it differs from the zero value of its type.
type Value interface {
	~bool | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint8 | ~uint16 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// Number is Value minus bool: types that support arithmetic.
type Number interface {
	~int8 | ~int16 | ~int32 | ~int64 |
		~uint8 | ~uint16 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// Format identifies the storage layout of a Matrix or Vector.
type Format int8

const (
	// FormatSparse stores a matrix as CSR (row pointer, column index and
	// value arrays); a vector's one row is its sorted index/value lists.
	FormatSparse Format = iota
	// FormatBitmap stores an m-by-n presence byte plus a value per cell.
	FormatBitmap
	// FormatFull stores every cell's value with no presence structure.
	FormatFull
)

func (f Format) String() string {
	switch f {
	case FormatSparse:
		return "sparse"
	case FormatBitmap:
		return "bitmap"
	case FormatFull:
		return "full"
	default:
		return "invalid"
	}
}

// Descriptor modifies an operation: Replace selects replace (annihilate
// outside the mask) rather than merge semantics, and TranA/TranB request
// the transpose of the first/second matrix input.
type Descriptor struct {
	Replace bool
	TranA   bool
	TranB   bool
}

// Prebuilt descriptors covering the combinations the algorithms use,
// mirroring GrB_DESC_R, GrB_DESC_T0 and friends.
var (
	DescR    = &Descriptor{Replace: true}
	DescT0   = &Descriptor{TranA: true}
	DescT1   = &Descriptor{TranB: true}
	DescRT0  = &Descriptor{Replace: true, TranA: true}
	DescRT1  = &Descriptor{Replace: true, TranB: true}
	DescT0T1 = &Descriptor{TranA: true, TranB: true}
)

// descOf returns a non-nil descriptor.
func descOf(d *Descriptor) Descriptor {
	if d == nil {
		return Descriptor{}
	}
	return *d
}

// All is the sentinel index slice meaning "all indices", the analogue of
// GrB_ALL in extract and assign operations.
var All []int

// isAll reports whether an index list means the whole range [0, n).
func isAll(idx []int) bool { return idx == nil }

// pending is one unassembled (row, col, value) operation; a vector's are
// in row 0, the index in j. del marks a tombstone: a deletion buffered out
// of the structure, the complement of a pending insertion, and the only
// form a sparse deletion takes.
type pending[T Value] struct {
	i, j int
	x    T
	del  bool
}

// truthy reports whether a stored value is "true" under the valued-mask
// convention: any value other than the zero value of its type.
func truthy[T Value](v T) bool {
	var zero T
	return v != zero
}
