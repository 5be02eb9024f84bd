module grape/benchmark

go 1.24

require grape v0.0.0

replace grape => ../
