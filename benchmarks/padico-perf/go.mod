module padico/benchmarks/padico-perf

go 1.24

require padico v0.0.0

replace padico => ../..
