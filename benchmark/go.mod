module demikernel/benchmark

go 1.22

require demikernel v0.0.0

replace demikernel => ../
