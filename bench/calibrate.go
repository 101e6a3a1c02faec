package main

import (
	"crypto/sha256"
	"sort"
	"sync"
	"time"
)

// calibrationRefPerLoad is the host time, in seconds, of one calibration
// load per goroutine on the reference machine: the 2-vCPU machine the
// bounds in BENCHMARK.json were measured on.
const calibrationRefPerLoad = 0.025

// calibrate times a fixed load — map inserts, a sort and hashing, written
// here so no change to the repository's code can change it — on
// simWorkers goroutines and returns its host seconds.
//
// The benchmark calibrates before the first pass and after every pass.
// The host-time end-to-end metrics are scaled by the reference time
// (loads × calibrationRefPerLoad) over the median calibration, so they
// read as if measured at the reference machine's speed: on a shared machine whose effective CPU speed drifts by
// a quarter over minutes, this keeps a run's numbers comparable with the
// next run's. calibration_ms reports the median calibration, so the raw
// host times can be recovered.
func calibrate(loads int) float64 {
	t := time.Now()
	sums := make([]byte, simWorkers)
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loads; i++ {
				sums[g] ^= calibrationLoad()
			}
		}()
	}
	wg.Wait()
	secs := time.Since(t).Seconds()
	for _, b := range sums {
		calibrationSink ^= b
	}
	return secs
}

// calibrationSink keeps the loads' results live.
var calibrationSink byte

func calibrationLoad() byte {
	m := make(map[uint64]uint64, 1<<16)
	x := uint64(88172645463325252)
	for i := uint64(0); i < 1<<17; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%200000] += i
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := make([]byte, 1<<20)
	var sum [sha256.Size]byte
	for i := range 4 {
		buf[i] = byte(keys[i]) ^ sum[0]
		sum = sha256.Sum256(buf)
	}
	return sum[0]
}
