package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// frozen pins every generated graph: the FNV-1a hash of N, Src, Dst and
// the weights AddUniformWeights(seed+17, 1, 255) attaches, for each class
// at edge factor 8 and for the graphs bench/e2e builds at -seed 1. A change
// to a generator, to Dedup or to the weights moves a hash here before it
// moves a benchmark cell or a golden.
var frozen = map[string]uint64{
	"kron/4/0":      0xec5fd9eb07a9a695,
	"kron/4/1":      0x81666cee99cded55,
	"kron/4/42":     0x6b9d76879f2b6755,
	"kron/7/0":      0xc73d355eae328555,
	"kron/7/1":      0x796e40561e771809,
	"kron/7/42":     0x1b543b2d0aa4baf5,
	"kron/10/0":     0xbbcb9046c424fb85,
	"kron/10/1":     0xb74e5e6933a1af01,
	"kron/10/42":    0x202584d519b94d5d,
	"kron/13/0":     0xee8655a18debc331,
	"kron/13/1":     0x9dcad1c4a0516499,
	"kron/13/42":    0xa3fdfe47aad61855,
	"urand/4/0":     0x382a3b06188ba685,
	"urand/4/1":     0x6127ea928503cb75,
	"urand/4/42":    0xd064e97ed38567b9,
	"urand/7/0":     0xd628b4aaa9a88fb5,
	"urand/7/1":     0xeab9629a908999dd,
	"urand/7/42":    0xf2d5329fbf8d3921,
	"urand/10/0":    0xe561a3efdb12dcc9,
	"urand/10/1":    0x8e00a354ad4ea781,
	"urand/10/42":   0x5c82c8a0ed0a0879,
	"urand/13/0":    0xe81f957d10ee2cc5,
	"urand/13/1":    0x5e999b7e94554931,
	"urand/13/42":   0x63f0009c60830e05,
	"twitter/4/0":   0xf09004deaca71e1c,
	"twitter/4/1":   0xcdd76a5e501892a2,
	"twitter/4/42":  0xee9dc5dfb3f29753,
	"twitter/7/0":   0x2ab2129c45946bd1,
	"twitter/7/1":   0xf22fec89c85318be,
	"twitter/7/42":  0x3bb98f889ce04237,
	"twitter/10/0":  0x90e677e07026929d,
	"twitter/10/1":  0x9a235f1104c3af0e,
	"twitter/10/42": 0xa35263d0c7479973,
	"twitter/13/0":  0x964b2381b50b0d2a,
	"twitter/13/1":  0xc679d7296a8d9a31,
	"twitter/13/42": 0x606d76f4a0060a4a,
	"web/4/0":       0x00f0d3a939605cbd,
	"web/4/1":       0xbd6c9dc3eddd7738,
	"web/4/42":      0xa958096cba557a80,
	"web/7/0":       0xd88c2e9553a23816,
	"web/7/1":       0x0e1019c2de0ed4a1,
	"web/7/42":      0xd4479c3062c57a1f,
	"web/10/0":      0xd5dd2658bb5359e8,
	"web/10/1":      0x26ec635489ce700f,
	"web/10/42":     0x9e7f2b0d2ecf591e,
	"web/13/0":      0x7526bb0c966125f6,
	"web/13/1":      0x364e4ea41e952389,
	"web/13/42":     0x7140294de303f418,
	"road/4/0":      0x94f4f77820c17df8,
	"road/4/1":      0xf78ceeec4e78ba43,
	"road/4/42":     0xf56578b390821c49,
	"road/7/0":      0xa1ccb5ebece890fb,
	"road/7/1":      0xdf6a9a0a6b348cbb,
	"road/7/42":     0x303e65d74a43c873,
	"road/10/0":     0x7f75dbbd572bb77e,
	"road/10/1":     0x47c77450116483e9,
	"road/10/42":    0x641d27e8890793c3,
	"road/13/0":     0x64cd69583265871e,
	"road/13/1":     0x13b8b6a590bee63b,
	"road/13/42":    0xc36e4046e67ce8b2,
	"kron/15/132":   0xd664984baa22fd55,
	"kron/13/132":   0xdacdbd8613417489,
	"kron/10/132":   0xa037647b03c8e375,
	"kron/10/133":   0x50952f11eeec78dd,
	"kron/10/134":   0x6f285e0c5d9dfa21,
	"kron/10/135":   0x73596ded1e3ae06d,
	"kron/10/136":   0xad9b1ad4999e5ab9,
	"kron/10/137":   0xac31e8401fa4806d,
	"kron/10/138":   0x332847dbdfa8ded9,
	"kron/10/139":   0xbe55e487f7bf0cb5,
	"road96/132":    0x88cdb5116764a733,
}

type frozenCase struct {
	name  string
	seed  uint64
	build func() (*EdgeList, error)
}

// frozenCases lists the graphs of frozen in a fixed order.
func frozenCases() []frozenCase {
	var cs []frozenCase
	gen := func(class string, scale int, seed uint64) {
		cs = append(cs, frozenCase{fmt.Sprintf("%s/%d/%d", class, scale, seed), seed,
			func() (*EdgeList, error) { return Generate(class, scale, 8, seed) }})
	}
	for _, class := range []string{"kron", "urand", "twitter", "web", "road"} {
		for _, scale := range []int{4, 7, 10, 13} {
			for _, seed := range []uint64{0, 1, 42} {
				gen(class, scale, seed)
			}
		}
	}
	// bench/e2e at -seed 1 generates its graph g from seed 132 + g.
	gen("kron", 15, 132)
	gen("kron", 13, 132)
	for seed := uint64(132); seed <= 139; seed++ {
		gen("kron", 10, seed)
	}
	return append(cs, frozenCase{"road96/132", 132,
		func() (*EdgeList, error) { return Road(96, 132), nil }})
}

// hashList folds N, Src, Dst and W, in order, into one FNV-1a hash.
func hashList(e *EdgeList) uint64 {
	h := fnv.New64a()
	for _, data := range []any{int64(e.N), e.Src, e.Dst, e.W} {
		binary.Write(h, binary.LittleEndian, data)
	}
	return h.Sum64()
}

func TestGeneratedGraphsFrozen(t *testing.T) {
	for _, c := range frozenCases() {
		e, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		e.AddUniformWeights(c.seed+17, 1, 255)
		if got, want := hashList(e), frozen[c.name]; got != want {
			t.Errorf("%q: %#016x, // was %#016x", c.name, got, want)
		}
	}
}
