// Package lagraph is the paper's primary contribution: a library of
// production-worthy graph algorithms built on top of the GraphBLAS
// (implemented here by lagraph/internal/grb).
//
// # Core data structure (paper §II-A)
//
// Graph is deliberately NOT opaque: its fields — the adjacency matrix A,
// the Kind, and the cached properties AT, RowDegree, ColDegree,
// ASymmetricPattern and NDiag — are exported, and any code may read or set
// them. The invariant is a convention, exactly as in the paper: whoever
// modifies G.A must clear or update the cached properties (DeleteProperties
// resets them to unknown). New has move-constructor semantics: the caller's
// matrix pointer is taken over and nilled.
//
// # User modes (paper §II-B)
//
// Every algorithm exports one function per tier, each taking ctx first
// (see ctx.go). Basic entry points (BreadthFirstSearch, PageRank,
// TriangleCount, ConnectedComponents, SingleSourceShortestPath,
// BetweennessCentrality, LocalClusteringCoefficient) "just work": they may
// inspect the graph, compute and cache properties — returning the
// WarnCacheNotComputed warning exactly when they cached something — and
// pick among specialised implementations. Advanced entry points (the
// *Advanced family, PageRankGAP/GX, SSSPDeltaStepping, BFSParentPushOnly,
// BFSStep) never mutate the graph: when a required cached property is
// missing they fail with StatusPropertyMissing rather than surprise the
// caller with hidden work.
//
// # Calling conventions (paper §II-C, §II-D)
//
// The C library returns an int (0 success, <0 error, >0 warning) plus a
// message buffer char msg[LAGRAPH_MSG_LEN]. In Go, every algorithm returns
// (outputs..., error); the error wraps a Status and a message retrievable
// with StatusOf and MessageOf. Warnings are represented as a *Warning that
// satisfies error but compares true with IsWarning. The LAGraph_TRY /
// GrB_TRY macros become Go's explicit "if err != nil { return … }": the
// garbage collector frees what the C macros' single exit had to. Must,
// which panics, is reserved for errors that cannot happen (an index the
// caller has already validated).
package lagraph
