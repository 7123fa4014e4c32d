module bpagg/benchmark

go 1.22

require bpagg v0.0.0

replace bpagg => ../
