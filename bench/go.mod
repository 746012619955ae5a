module blueq/bench

go 1.22

require blueq v0.0.0

replace blueq => ../
