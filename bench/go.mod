module colsort/bench

go 1.23

require colsort v0.0.0

replace colsort => ../
