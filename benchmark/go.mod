module gem5art/benchmark

go 1.22

require gem5art v0.0.0

replace gem5art => ../
