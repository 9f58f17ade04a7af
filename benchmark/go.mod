module astro/benchmark

go 1.24

require astro v0.0.0

replace astro => ../
