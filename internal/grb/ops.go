package grb

import "math"

// UnaryOp maps one stored value to another, optionally using the entry's
// position (i for vectors; i, j for matrices). It backs apply.
type UnaryOp[TIn, TOut Value] struct {
	Name string
	F    func(TIn) TOut
	// PosF, if non-nil, overrides F and receives the entry position.
	PosF func(x TIn, i, j int) TOut
}

// IndexUnaryOp is the select-operator family (GrB_IndexUnaryOp): a boolean
// predicate over an entry's value and position plus a scalar thunk.
type IndexUnaryOp[T Value] struct {
	Name string
	F    func(x T, i, j int, thunk T) bool
}

// BinaryOp combines two stored values. Positional operators (secondi and
// friends) set PosF instead of F: for a multiplication pair a(i,k)*b(k,j)
// the kernel passes those three indices.
type BinaryOp[TA, TB, TC Value] struct {
	Name string
	F    func(TA, TB) TC
	PosF func(i, k, j int) TC
}

// Positional reports whether the op ignores values and uses indices.
func (op BinaryOp[TA, TB, TC]) Positional() bool { return op.PosF != nil }

// Monoid is an associative operator with identity over a single domain.
// Terminal, when non-nil, is an absorbing value: once reached, a reduction
// may stop early. IsAny marks the ANY monoid, which may return an arbitrary
// operand — the paper's "benign race" — letting kernels stop at the first
// contribution.
type Monoid[T Value] struct {
	Name     string
	F        func(T, T) T
	Identity T
	Terminal *T
	IsAny    bool
}

// Semiring pairs an additive monoid over TC with a multiplicative operator
// TA x TB -> TC.
type Semiring[TA, TB, TC Value] struct {
	Name string
	Add  Monoid[TC]
	Mul  BinaryOp[TA, TB, TC]
	// pull is the monomorphic pull loop (fastpath.go) that computes this
	// semiring. Only the built-in constructors set it: a semiring assembled
	// by the caller, whatever its Name, runs the generic kernels.
	pull pullLoop
}

type pullLoop int8

const (
	pullGeneric pullLoop = iota
	pullPlusSecond
	pullMinSecond
	pullPlusPair
)

// ---------------------------------------------------------------------------
// numeric limits

// MaxOf returns the maximum representable value of T (for floats, +Inf).
func MaxOf[T Number]() T {
	var v T
	switch p := any(&v).(type) {
	case *float64:
		*p = math.Inf(1)
	case *float32:
		*p = float32(math.Inf(1))
	case *int8:
		*p = math.MaxInt8
	case *int16:
		*p = math.MaxInt16
	case *int32:
		*p = math.MaxInt32
	case *int64:
		*p = math.MaxInt64
	case *uint8:
		*p = math.MaxUint8
	case *uint16:
		*p = math.MaxUint16
	case *uint32:
		*p = math.MaxUint32
	case *uint64:
		*p = math.MaxUint64
	default:
		panic("grb: MaxOf on a named numeric type")
	}
	return v
}

// MinOf returns the minimum representable value of T (for floats, -Inf;
// for unsigned integers, zero).
func MinOf[T Number]() T {
	var v T
	switch p := any(&v).(type) {
	case *float64:
		*p = math.Inf(-1)
	case *float32:
		*p = float32(math.Inf(-1))
	case *int8:
		*p = math.MinInt8
	case *int16:
		*p = math.MinInt16
	case *int32:
		*p = math.MinInt32
	case *int64:
		*p = math.MinInt64
	case *uint8, *uint16, *uint32, *uint64:
		// zero value already
	default:
		panic("grb: MinOf on a named numeric type")
	}
	return v
}

// ---------------------------------------------------------------------------
// binary operators

// First returns first(x,y) = x.
func First[TA, TB Value]() BinaryOp[TA, TB, TA] {
	return BinaryOp[TA, TB, TA]{Name: "first", F: func(a TA, _ TB) TA { return a }}
}

// Second returns second(x,y) = y.
func Second[TA, TB Value]() BinaryOp[TA, TB, TB] {
	return BinaryOp[TA, TB, TB]{Name: "second", F: func(_ TA, b TB) TB { return b }}
}

// Pair returns pair(x,y) = 1 regardless of the inputs — the structural
// "times" used by triangle counting (paper Table II).
func Pair[TA, TB Value, TC Number]() BinaryOp[TA, TB, TC] {
	return BinaryOp[TA, TB, TC]{Name: "pair", F: func(TA, TB) TC { return 1 }}
}

// PlusOp returns arithmetic addition.
func PlusOp[T Number]() BinaryOp[T, T, T] {
	return BinaryOp[T, T, T]{Name: "plus", F: func(a, b T) T { return a + b }}
}

// MinusOp returns arithmetic subtraction.
func MinusOp[T Number]() BinaryOp[T, T, T] {
	return BinaryOp[T, T, T]{Name: "minus", F: func(a, b T) T { return a - b }}
}

// TimesOp returns arithmetic multiplication.
func TimesOp[T Number]() BinaryOp[T, T, T] {
	return BinaryOp[T, T, T]{Name: "times", F: func(a, b T) T { return a * b }}
}

// DivOp returns arithmetic division.
func DivOp[T Number]() BinaryOp[T, T, T] {
	return BinaryOp[T, T, T]{Name: "div", F: func(a, b T) T { return a / b }}
}

// MinOp returns min(x, y).
func MinOp[T Number]() BinaryOp[T, T, T] {
	return BinaryOp[T, T, T]{Name: "min", F: func(a, b T) T {
		if b < a {
			return b
		}
		return a
	}}
}

// NEOp returns x != y as the target numeric type (1 or 0).
func NEOp[T Value, TC Number]() BinaryOp[T, T, TC] {
	return BinaryOp[T, T, TC]{Name: "ne", F: func(a, b T) TC {
		if a != b {
			return 1
		}
		return 0
	}}
}

// LorOp is boolean or.
func LorOp() BinaryOp[bool, bool, bool] {
	return BinaryOp[bool, bool, bool]{Name: "lor", F: func(a, b bool) bool { return a || b }}
}

// SecondIOp is the positional multiplicative operator named per GxB: for
// a pair a(i,k)*b(k,j), secondi=k. The result type is a generic Number so
// algorithms can pick int32 or int64 ids.
func SecondIOp[TA, TB Value, TC Number]() BinaryOp[TA, TB, TC] {
	return BinaryOp[TA, TB, TC]{Name: "secondi", PosF: func(_, k, _ int) TC { return TC(k) }}
}

// ---------------------------------------------------------------------------
// monoids

// PlusMonoid is (+, 0).
func PlusMonoid[T Number]() Monoid[T] {
	return Monoid[T]{Name: "plus", F: func(a, b T) T { return a + b }, Identity: 0}
}

// TimesMonoid is (*, 1).
func TimesMonoid[T Number]() Monoid[T] {
	return Monoid[T]{Name: "times", F: func(a, b T) T { return a * b }, Identity: 1}
}

// MinMonoid is (min, +inf) with -inf terminal.
func MinMonoid[T Number]() Monoid[T] {
	term := MinOf[T]()
	return Monoid[T]{
		Name: "min",
		F: func(a, b T) T {
			if b < a {
				return b
			}
			return a
		},
		Identity: MaxOf[T](),
		Terminal: &term,
	}
}

// MaxMonoid is (max, -inf) with +inf terminal.
func MaxMonoid[T Number]() Monoid[T] {
	term := MaxOf[T]()
	return Monoid[T]{
		Name: "max",
		F: func(a, b T) T {
			if b > a {
				return b
			}
			return a
		},
		Identity: MinOf[T](),
		Terminal: &term,
	}
}

// AnyMonoid returns any operand: any(x,y) is either x or y, chosen
// arbitrarily. Every value is terminal, so reductions stop at the first
// contribution — the linear-algebra translation of the GAP BFS benign race.
func AnyMonoid[T Value]() Monoid[T] {
	return Monoid[T]{Name: "any", F: func(a, _ T) T { return a }, IsAny: true}
}

// LandMonoid is (and, true) with false terminal.
func LandMonoid() Monoid[bool] {
	f := false
	return Monoid[bool]{Name: "land", F: func(a, b bool) bool { return a && b }, Identity: true, Terminal: &f}
}

// ---------------------------------------------------------------------------
// semirings (Table II of the paper, plus the helpers the algorithms need)

// PlusTimes is the conventional arithmetic semiring.
func PlusTimes[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Name: "plus.times", Add: PlusMonoid[T](), Mul: TimesOp[T]()}
}

// AnySecondI is the BFS-parent semiring: the multiplicative operator yields
// the index k of the pair (the parent id) and the ANY monoid keeps an
// arbitrary valid parent.
func AnySecondI[TA, TB Value, TC Number]() Semiring[TA, TB, TC] {
	return Semiring[TA, TB, TC]{Name: "any.secondi", Add: AnyMonoid[TC](), Mul: SecondIOp[TA, TB, TC]()}
}

// MinPlus is the shortest-path (tropical) semiring.
func MinPlus[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Name: "min.plus", Add: MinMonoid[T](), Mul: PlusOp[T]()}
}

// PlusFirst counts/propagates values from the left operand, ignoring the
// right operand's values (BC path counting against an unweighted graph).
func PlusFirst[TA Number, TB Value]() Semiring[TA, TB, TA] {
	return Semiring[TA, TB, TA]{Name: "plus.first", Add: PlusMonoid[TA](), Mul: First[TA, TB]()}
}

// PlusSecond propagates values from the right operand, ignoring the left's
// (PageRank against a possibly-weighted graph).
func PlusSecond[TA Value, TB Number]() Semiring[TA, TB, TB] {
	return Semiring[TA, TB, TB]{Name: "plus.second", Add: PlusMonoid[TB](), Mul: Second[TA, TB](), pull: pullPlusSecond}
}

// PlusPair counts structural intersections (triangle counting, and the
// degree A·1).
func PlusPair[TA, TB Value, TC Number]() Semiring[TA, TB, TC] {
	return Semiring[TA, TB, TC]{Name: "plus.pair", Add: PlusMonoid[TC](), Mul: Pair[TA, TB, TC](), pull: pullPlusPair}
}

// MinSecond propagates the right operand's value and keeps the minimum
// (FastSV hooking).
func MinSecond[TA Value, TB Number]() Semiring[TA, TB, TB] {
	return Semiring[TA, TB, TB]{Name: "min.second", Add: MinMonoid[TB](), Mul: Second[TA, TB](), pull: pullMinSecond}
}

// ---------------------------------------------------------------------------
// select (IndexUnaryOp) library

// Tril keeps entries on or below the thunk-th diagonal (j-i <= thunk).
func Tril[T Value]() IndexUnaryOp[T] {
	return IndexUnaryOp[T]{Name: "tril", F: func(_ T, i, j int, _ T) bool { return j <= i }}
}

// Triu keeps entries on or above the thunk-th diagonal (j-i >= thunk).
func Triu[T Value]() IndexUnaryOp[T] {
	return IndexUnaryOp[T]{Name: "triu", F: func(_ T, i, j int, _ T) bool { return j >= i }}
}

// Diag keeps diagonal entries; Offdiag keeps the rest.
func Diag[T Value]() IndexUnaryOp[T] {
	return IndexUnaryOp[T]{Name: "diag", F: func(_ T, i, j int, _ T) bool { return i == j }}
}

func Offdiag[T Value]() IndexUnaryOp[T] {
	return IndexUnaryOp[T]{Name: "offdiag", F: func(_ T, i, j int, _ T) bool { return i != j }}
}

// Value comparators against the thunk.
func ValueGT[T Number]() IndexUnaryOp[T] {
	return IndexUnaryOp[T]{Name: "valuegt", F: func(x T, _, _ int, k T) bool { return x > k }}
}

func ValueGE[T Number]() IndexUnaryOp[T] {
	return IndexUnaryOp[T]{Name: "valuege", F: func(x T, _, _ int, k T) bool { return x >= k }}
}

func ValueLE[T Number]() IndexUnaryOp[T] {
	return IndexUnaryOp[T]{Name: "valuele", F: func(x T, _, _ int, k T) bool { return x <= k }}
}

// ---------------------------------------------------------------------------
// unary operator library

// Identity returns x unchanged.
func Identity[T Value]() UnaryOp[T, T] {
	return UnaryOp[T, T]{Name: "identity", F: func(x T) T { return x }}
}

// AbsOp returns |x|.
func AbsOp[T Number]() UnaryOp[T, T] {
	return UnaryOp[T, T]{Name: "abs", F: func(x T) T {
		if x < 0 {
			return -x
		}
		return x
	}}
}

// AInvOp returns -x.
func AInvOp[T Number]() UnaryOp[T, T] {
	return UnaryOp[T, T]{Name: "ainv", F: func(x T) T { return -x }}
}

// RowIndexOp maps an entry to its row index plus thunk-free offset 0.
func RowIndexOp[TIn Value, TOut Number]() UnaryOp[TIn, TOut] {
	return UnaryOp[TIn, TOut]{Name: "rowindex", PosF: func(_ TIn, i, _ int) TOut { return TOut(i) }}
}
