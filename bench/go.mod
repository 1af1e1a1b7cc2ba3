module ebslab/bench

go 1.22

require ebslab v0.0.0

replace ebslab => ../
