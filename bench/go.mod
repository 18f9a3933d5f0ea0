module bdhtm/bench

go 1.24

require bdhtm v0.0.0

replace bdhtm => ../
