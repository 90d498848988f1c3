module dynopt/benchmark

go 1.24

require dynopt v0.0.0

replace dynopt => ../
