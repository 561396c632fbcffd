module snapk/bench

go 1.24

require snapk v0.0.0

replace snapk => ../
