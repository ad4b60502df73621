module mpicd/bench

go 1.22

require mpicd v0.0.0

replace mpicd => ../
