module ngd/bench

go 1.24

require ngd v0.0.0

replace ngd => ../
