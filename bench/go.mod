module she/bench

go 1.22

require she v0.0.0

replace she => ../
