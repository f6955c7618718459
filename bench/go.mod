// The benchmark is a module of its own so it builds from its own
// directory; the replace lets it import the simulator's internal packages
// (module path repro/bench sits inside repro/, which is what Go's
// internal-package rule checks).
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
