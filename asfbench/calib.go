package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on is a small VM on a shared machine whose
// speed drifts by 20-30% over minutes as other tenants come and go, and
// sim-matrix's wall times follow it. Its timing metrics are therefore
// reported at a reference host speed: each measured time is multiplied by
// referenceCalibS over the median time of a fixed calibration workload run
// between the matrices of the same window. On a host where the calibration
// takes referenceCalibS the scaled time is the wall time itself.
//
// The calibration is owned by the benchmark and runs in a child process,
// so nothing the program does to its own process (goroutines it leaves
// running, heap it keeps, GC settings) can slow the calibration and hide
// a slowdown of the program. It mimics what the simulator spends its host
// time on: one ring per GOMAXPROCS of nine goroutines (a scheduler and
// eight simulated cores) handing a token round over unbuffered channels,
// with a few lookups in a 64Ki-entry map per hand-off.
const (
	referenceCalibS = 0.40
	calibRings      = 9
	calibRounds     = 60_000
	calibLookups    = 8
	calibMapSize    = 1 << 16
)

// calibrateFlag makes the program run one calibration, print its
// duration in seconds and exit; calibrate starts it that way.
const calibrateFlag = "--calibrate"

// runCalibration is the child process side: it times the calibration
// workload (the map is built before timing) and prints seconds.
func runCalibration() {
	m := make(map[uint64]uint64, calibMapSize)
	for i := uint64(0); i < calibMapSize; i++ {
		m[i] = i * 0x9e3779b97f4a7c15
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, runtime.GOMAXPROCS(0))
	for r := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[r] = calibRing(m)
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	var sum uint64
	for _, s := range sums {
		sum += s
	}
	fmt.Printf("%.9f %d\n", d.Seconds(), sum)
}

// calibRing passes a token calibRounds times round a ring of calibRings
// goroutines and returns the token's final value.
func calibRing(m map[uint64]uint64) uint64 {
	chs := make([]chan uint64, calibRings)
	for i := range chs {
		chs[i] = make(chan uint64)
	}
	work := func(v uint64) uint64 {
		for k := uint64(0); k < calibLookups; k++ {
			v += m[(v*2654435761+k)&(calibMapSize-1)]
		}
		return v
	}
	var wg sync.WaitGroup
	for i := 1; i < calibRings; i++ {
		wg.Add(1)
		go func(in, next chan uint64) {
			defer wg.Done()
			for r := 0; r < calibRounds; r++ {
				next <- work(<-in)
			}
		}(chs[i], chs[(i+1)%calibRings])
	}
	v := uint64(1)
	for r := 0; r < calibRounds; r++ {
		chs[1] <- v
		v = work(<-chs[0])
	}
	wg.Wait()
	return v
}

// calibrate runs the calibration in a child process of this program and
// returns its duration in seconds.
func calibrate() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, calibrateFlag).Output()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 {
		return 0, fmt.Errorf("calibration printed %q", out)
	}
	s, err := strconv.ParseFloat(f[0], 64)
	if err != nil || s <= 0 {
		return 0, fmt.Errorf("calibration printed %q", out)
	}
	return s, nil
}

// hostSpeed collects calibration times and turns them into the factor
// that scales a wall time to the reference host speed.
type hostSpeed struct {
	calibS []float64
}

// sample runs one calibration and returns how long it took, wall time
// including the child process's start.
func (h *hostSpeed) sample() (time.Duration, error) {
	t0 := time.Now()
	s, err := calibrate()
	if err != nil {
		return time.Since(t0), err
	}
	h.calibS = append(h.calibS, s)
	return time.Since(t0), nil
}

// factor is referenceCalibS over the median calibration time.
func (h *hostSpeed) factor() float64 {
	return referenceCalibS / median(h.calibS)
}
