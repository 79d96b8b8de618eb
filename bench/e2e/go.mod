module lagraph/bench/e2e

go 1.24

require lagraph v0.0.0

replace lagraph => ../..
