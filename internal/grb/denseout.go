package grb

// The dense-output rule: a bitmap/full vector is updated where it lies.
//
// A vector call computes a result t and merges it into w under the mask,
// the accumulator and replace (see finalize.go). When w is bitmap or full —
// or is sparse while t is dense (no mask, or a mask that is itself dense),
// so that w's arrays are allocated here, once — the merge is made position
// by position straight into w's own val (and b) arrays: no temporary t, no
// builder, no conform round trip. inPlace is that decision, and every
// vector entry point takes it here:
//
//   - A call that visits every position of w (an element-wise operation,
//     apply or select over bitmap/full operands, a whole-range assign, a
//     gather, the merge of a dense t) reads what it reads at position i
//     before it writes position i, so w may be an operand; the mask is
//     copied to a byte array before the first write, so w may be its own
//     mask; the pending operations of w are assembled first. What it
//     may not do is read w at some other position: with an operand that
//     is gathered through an index list and is w, the result goes to a
//     temporary, as does a thin result (sparse mask) for a sparse w.
//   - A call that visits only some positions (the entries of a sparse t,
//     an index list to scatter to, the rows of a pull product) leaves the
//     others as they are, which is the defined result only for an unmasked
//     accumulate into a w that is already bitmap/full and is not read by
//     the call; everything else takes the path through a temporary.
//
// reads lists the operands the call reads at positions other than the one
// it is writing.
func inPlace[T Value](w *Vector[T], mask VMask, accum func(T, T) T, everyPosition bool, reads ...any) bool {
	for _, r := range reads {
		if r == any(w) {
			return false
		}
	}
	if everyPosition {
		return w.format != FormatSparse || mask.dense() && BitmapEnabled()
	}
	return w.format != FormatSparse && !mask.Exists() && accum != nil
}

// dense reports whether the allowed positions are as many as the vector
// is long, more or less: no mask, a complemented one, a bitmap/full source.
func (mk VMask) dense() bool { return !mk.Exists() || mk.Comp || mk.src.maskIsDense() }

// denseDst is the destination of a call that visits every position:
// put(i, x) where the call's result holds an entry, none(i) where it does
// not, commit once at the end. It is w's own storage under the dense-output
// rule, and otherwise a temporary list t that commit merges into w.
type denseDst[T Value] struct {
	w       *Vector[T]
	val     []T
	b       []int8 // nil while w is full
	nvals   int
	t       *Vector[T] // the temporary, when w may not be written in place
	allow   vAllow
	accum   func(T, T) T
	replace bool
	plain   bool // in place, full, unmasked, no accumulator: put is a store
}

// denseOutput prepares w as the destination of a call that visits every
// position, making it bitmap/full where inPlace says it is written in
// place.
func denseOutput[T Value](w *Vector[T], mask VMask, accum func(T, T) T, replace bool, reads ...any) denseDst[T] {
	w.Wait()
	// The mask is read now, before w — which may be its source — changes.
	d := denseDst[T]{w: w, allow: mask.allowFor(w.nc, true), accum: accum, replace: replace}
	switch {
	case !inPlace(w, mask, accum, true, reads...):
		d.t = MustVector[T](w.nc)
		return d
	case w.format != FormatSparse:
	case len(w.idx) == 0:
		w.idx, w.val, w.b = nil, make([]T, w.nc), make([]int8, w.nc)
		w.nvalsB, w.format = 0, FormatBitmap
	default:
		w.sparseToBitmap()
	}
	d.val, d.b, d.nvals = w.val, w.b, w.nvalsB
	d.plain = d.b == nil && d.allow.dense == nil && accum == nil
	return d
}

// put merges the result's entry x at position i.
func (d *denseDst[T]) put(i int, x T) {
	if d.plain {
		d.val[i] = x
		return
	}
	d.visit(i, x, true, true)
}

// none records that the result holds no entry at position i.
func (d *denseDst[T]) none(i int) {
	var zero T
	d.visit(i, zero, false, true)
}

// keep records that position i lies outside the region of an assign.
func (d *denseDst[T]) keep(i int) {
	var zero T
	d.visit(i, zero, false, false)
}

// visit settles position i, where the result holds x (tok) or nothing: in
// place what settle decides is done to w; a temporary collects the allowed
// entries for commit to merge.
func (d *denseDst[T]) visit(i int, x T, tok, inRegion bool) {
	if d.t != nil {
		if tok && d.allow.ok(i) {
			d.t.idx, d.t.val = append(d.t.idx, i), append(d.t.val, x)
		}
		return
	}
	cok := d.b == nil || d.b[i] != 0
	switch settle(d.allow.ok(i), d.replace, inRegion, d.accum != nil, cok, tok) {
	case combined:
		d.val[i] = d.accum(d.val[i], x)
	case taken:
		d.val[i] = x
		if !cok {
			d.b[i] = 1
			d.nvals++
		}
	case gone:
		if cok {
			d.remove(i)
		}
	}
}

// remove deletes the entry w holds at position i; a full w turns bitmap.
func (d *denseDst[T]) remove(i int) {
	if d.b == nil {
		d.w.fullToBitmap()
		d.b, d.nvals, d.plain = d.w.b, d.w.nc, false
	}
	var zero T
	d.b[i], d.val[i] = 0, zero
	d.nvals--
}

// commit finishes the call: in place, the entry count is stored and the
// format policy applied (a complete bitmap becomes full, a thin one
// sparse); a temporary is merged into w.
func (d *denseDst[T]) commit() {
	mask := d.allow.mk
	d.allow.release()
	switch {
	case d.t != nil:
		d.t.conform()
		maskAccumVector(d.w, mask, d.accum, d.t, d.replace, true)
	case d.b != nil:
		d.w.nvalsB = d.nvals
		d.w.conform()
	}
}

// vecCursor reads a finished vector of any format at ascending positions.
type vecCursor[T Value] struct {
	idx    []int // sparse: the entry list, read from p on
	val    []T
	b      []int8 // bitmap
	p      int
	sparse bool
}

func cursorOf[T Value](v *Vector[T]) vecCursor[T] {
	return vecCursor[T]{idx: v.idx, val: v.val, b: v.b, sparse: v.format == FormatSparse}
}

func (c *vecCursor[T]) at(i int) (x T, ok bool) {
	if !c.sparse {
		return c.val[i], c.b == nil || c.b[i] != 0
	}
	if c.p < len(c.idx) && c.idx[c.p] == i {
		c.p++
		return c.val[c.p-1], true
	}
	return x, false
}
