package main

// Pinned outputs, taken from the program when the benchmark was
// introduced. A change that alters any of them changed what the program
// computes, not how fast it computes it.

// pinnedSweep is the sha256 of input 0's paper-sweep rendering per
// workload seed. Seed 1's is also the sha256 of `euasim -exp fig2 -workers 1`
// standard output without its final empty line.
var pinnedSweep = map[uint64]string{
	DefaultSeed: "fa32442e0a2200e54ac02fd0feabe9619b772eedc72440a8478ccfd950bb5cc0",
	HeldOutSeed: "2b0edd92406dd8a6ee6757a4640ac4aa3d3288b14ce557e924a1e56798abf6cd",
}

// pinnedRefSweep is the sha256 of the reference sweep (simulation seeds
// 1..refSeeds, refHorizon) every paper-sweep run renders and compares
// with euasim's output.
const pinnedRefSweep = "b2e1f25f0c6c15b9873396cd789919e8964d1eab3bb58ba304f453fe9d2593b7"

// pinnedDense is input 0's exact 1-core and 2-core outcome per workload
// seed.
var pinnedDense = map[uint64][2]string{
	DefaultSeed: {
		"EUA* events=6142 released=2318 completed=1506 aborted=812 utility=55136.59221798764 energy=5.331578355308142e+26 migrations=0 decisions=2833 preemptions=0",
		"EUA*/P2ff events=6954 released=2318 completed=2318 aborted=0 utility=80638.24566229283 energy=6.175772047101004e+26 migrations=0 decisions=3648 preemptions=4",
	},
	HeldOutSeed: {
		"EUA* events=5926 released=2232 completed=1462 aborted=770 utility=53607.179752856464 energy=5.3705145334209644e+26 migrations=0 decisions=2736 preemptions=0",
		"EUA*/P2ff events=6696 released=2232 completed=2232 aborted=0 utility=78055.89261555058 energy=6.0941688422457475e+26 migrations=0 decisions=3508 preemptions=40",
	},
}

// pinnedDenseRef is the outcome pair of the reference dense instance
// (workload seed 1, denseRefHorizon) every dense-overload run checks.
var pinnedDenseRef = [2]string{
	"EUA* events=3185 released=1192 completed=801 aborted=391 utility=29195.795361434506 energy=2.8356758307489284e+26 migrations=0 decisions=1447 preemptions=0",
	"EUA*/P2ff events=3576 released=1192 completed=1192 aborted=0 utility=41476.9321068683 energy=3.142332991640575e+26 migrations=0 decisions=1840 preemptions=0",
}
