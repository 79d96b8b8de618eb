package grb

import (
	"cmp"
	"strconv"
)

// Element-wise operations (paper Table I): eWiseAdd applies op on the set
// union of the input structures; eWiseMult on the set intersection. The
// vector forms are the same body on the one row a vector is stored as.

// EWiseAdd computes C⟨M⟩⊙= A op∪ B. Where only one operand has an entry,
// that entry passes through unchanged (the "add" structure semantics).
func EWiseAdd[TA, TB, TC Value](C *Matrix[TC], mask Mask, accum func(TC, TC) TC,
	op addOpPair[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], desc *Descriptor) error {

	d := descOf(desc)
	return ewise(C, mask, accum, op, oriented(A, d.TranA), oriented(B, d.TranB), d.Replace, false, "EWiseAdd")
}

// EWiseMult computes C⟨M⟩⊙= A op∩ B: entries present in both inputs.
func EWiseMult[TA, TB, TC Value](C *Matrix[TC], mask Mask, accum func(TC, TC) TC,
	op BinaryOp[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], desc *Descriptor) error {

	d := descOf(desc)
	return ewise(C, mask, accum, addOpPair[TA, TB, TC]{op: op}, oriented(A, d.TranA), oriented(B, d.TranB), d.Replace, false, "EWiseMult")
}

// EWiseAddV computes w⟨m⟩⊙= u op∪ v.
func EWiseAddV[T Value](w *Vector[T], mask VMask, accum func(T, T) T,
	op BinaryOp[T, T, T], u, v *Vector[T], desc *Descriptor) error {

	return ewise(w.asRow(), mask, accum, AddOp(op), u.asRow(), v.asRow(), descOf(desc).Replace, true, "EWiseAddV")
}

// EWiseMultV computes w⟨m⟩⊙= u op∩ v.
func EWiseMultV[TA, TB, TC Value](w *Vector[TC], mask VMask, accum func(TC, TC) TC,
	op BinaryOp[TA, TB, TC], u *Vector[TA], v *Vector[TB], desc *Descriptor) error {

	return ewise(w.asRow(), mask, accum, addOpPair[TA, TB, TC]{op: op}, u.asRow(), v.asRow(), descOf(desc).Replace, true, "EWiseMultV")
}

// addOpPair is the operator of an element-wise call: the binary op, and
// whether it runs on the union, where a single-sided entry passes through
// — which requires TA, TB and TC to be one type. AddOp builds it for that
// case, the C API's; every union pair is AddOp's.
type addOpPair[TA, TB, TC Value] struct {
	op    BinaryOp[TA, TB, TC]
	union bool
}

// AddOp adapts a same-typed binary operator for use with EWiseAdd.
func AddOp[T Value](op BinaryOp[T, T, T]) addOpPair[T, T, T] {
	return addOpPair[T, T, T]{op: op, union: true}
}

// pass is a single-sided entry of a union, where TA and TC are one type.
func pass[TA, TC Value](x TA) (y TC) {
	*any(&y).(*TA) = x
	return y
}

// both evaluates the op where both operands hold an entry; col as in apply.
func (pr addOpPair[TA, TB, TC]) both(i, j int, ax TA, bx TB, col bool) TC {
	if pr.op.PosF == nil {
		return pr.op.F(ax, bx)
	}
	pi, pj := at(i, j, col)
	return pr.op.PosF(pi, 0, pj)
}

// ewise combines A and B row by row: an intersection, or a union with
// pass-through. Positions the mask disallows are
// skipped (mask pre-restriction). Each row is driven by its sparsest
// participant:
//
//	sparse ∘ sparse                      two-pointer merge of the sorted rows
//	sparse ∩ bitmap/full                 walk the sparse row, probe the other
//	bitmap/full ∩ bitmap/full under a    walk the mask's row, probe both
//	  sparse non-complemented mask
//	anything else (a union with a dense  one pass over the row's positions
//	  side, dense ∩ dense)
func ewise[TA, TB, TC Value](C *Matrix[TC], mask Mask, accum func(TC, TC) TC,
	op addOpPair[TA, TB, TC], A *Matrix[TA], B *Matrix[TB], replace, col bool, name string) error {

	if A.nr != B.nr || A.nc != B.nc {
		return dimErr(name, "A "+strconv.Itoa(A.nr)+"x"+strconv.Itoa(A.nc), "B "+strconv.Itoa(B.nr)+"x"+strconv.Itoa(B.nc))
	}
	if err := cmp.Or(sameShape(name, C.nr, C.nc, A.nr, A.nc), mask.check(C.nr, C.nc, name)); err != nil {
		return err
	}
	A.Wait()
	B.Wait()
	union := op.union
	// C = C op∪ B with a sparse B (so B is not C) into a bitmap/full C, no
	// mask, no accumulator: C op= B, folded in at B's entries.
	if f, ok := any(op.op.F).(func(TC, TC) TC); ok && f != nil && union && any(A) == any(C) && !mask.Exists() &&
		accum == nil && C.format != FormatSparse && B.format == FormatSparse {
		return apply(C, NoMask, f, Identity[TC](), any(B).(*Matrix[TC]), false, col, name)
	}
	aS, bS, aF, bF := A.format == FormatSparse, B.format == FormatSparse, A.format == FormatFull, B.format == FormatFull
	walkMask := !union && !aS && !bS && mask.walkable()
	hint := 0
	switch {
	case aS && bS && union:
		hint = A.ptr[A.nr] + B.ptr[B.nr]
	case aS && bS:
		hint = min(A.ptr[A.nr], B.ptr[B.nr])
	case aS && !union:
		hint = A.ptr[A.nr]
	case bS && !union:
		hint = B.ptr[B.nr]
	}
	wb := C.output(mask, accum, replace, nil, tShape{
		dense: !walkMask && (union && !(aS && bS) || !aS && !bS),
		full:  union && (aF || bF) || aF && bF,
	})
	if wb.plain && A.format == FormatFull && B.format == FormatFull && op.op.PosF == nil {
		cv, av, bv, f := C.val, A.val, B.val, op.op.F
		for p := range cv {
			cv[p] = f(av[p], bv[p])
		}
		wb.commit()
		return nil
	}
	// C may be an operand, and turned bitmap: read the formats again.
	aS, bS = A.format == FormatSparse, B.format == FormatSparse
	nc, masked := C.nc, mask.Exists()
	run(wb, nil, hint, func(lo, hi int, o *sink[TC]) {
		for i := lo; i < hi; i++ {
			o.open(i)
			base := i * nc
			if walkMask {
				mask.walk(i, func(j int) {
					if p := base + j; A.denseHas(p) && B.denseHas(p) {
						o.emit(j, op.both(i, j, A.val[p], B.val[p], col))
					}
				})
				continue
			}
			var p, pe, q, qe int
			if aS {
				p, pe = A.ptr[i], A.ptr[i+1]
			}
			if bS {
				q, qe = B.ptr[i], B.ptr[i+1]
			}
			switch {
			case aS && bS:
				av, bv := A.val[p:pe], B.val[q:qe]
				unionWalk(A.idx[p:pe], B.idx[q:qe], func(j, pa, qb int) {
					switch {
					case (pa < 0 || qb < 0) && !union || masked && !o.ok(j):
					case qb < 0:
						o.emit(j, pass[TA, TC](av[pa]))
					case pa < 0:
						o.emit(j, pass[TB, TC](bv[qb]))
					default:
						o.emit(j, op.both(i, j, av[pa], bv[qb], col))
					}
				})
			case aS && !union:
				for ; p < pe; p++ {
					if j := A.idx[p]; B.denseHas(base+j) && (!masked || o.ok(j)) {
						o.emit(j, op.both(i, j, A.val[p], B.val[base+j], col))
					}
				}
			case bS && !union:
				for ; q < qe; q++ {
					if j := B.idx[q]; A.denseHas(base+j) && (!masked || o.ok(j)) {
						o.emit(j, op.both(i, j, A.val[base+j], B.val[q], col))
					}
				}
			default:
				for j := 0; j < nc; j++ {
					var ax TA
					var bx TB
					aok, bok := false, false
					if aS {
						if p < pe && A.idx[p] == j {
							ax, aok = A.val[p], true
							p++
						}
					} else if A.denseHas(base + j) {
						ax, aok = A.val[base+j], true
					}
					if bS {
						if q < qe && B.idx[q] == j {
							bx, bok = B.val[q], true
							q++
						}
					} else if B.denseHas(base + j) {
						bx, bok = B.val[base+j], true
					}
					if emits := aok && bok || union && (aok || bok); !emits || masked && !o.ok(j) {
						continue
					}
					switch {
					case aok && bok && op.op.PosF == nil:
						o.emit(j, op.op.F(ax, bx))
					case aok && bok:
						o.emit(j, op.both(i, j, ax, bx, col))
					case aok:
						o.emit(j, pass[TA, TC](ax))
					default:
						o.emit(j, pass[TB, TC](bx))
					}
				}
			}
		}
	})
	wb.commit()
	return nil
}
