module xdmodfed/bench

go 1.22

require xdmodfed v0.0.0

replace xdmodfed => ../
