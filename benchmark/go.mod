module helix/benchmark

go 1.24

require helix v0.0.0

replace helix => ../
