//go:build race

package serve

// raceDetectorEnabled lets TestBinaryHitAllocations skip under -race,
// whose runtime allocates on its own account, so TotalAlloc there does
// not measure what a normal build allocates per request.
const raceDetectorEnabled = true
