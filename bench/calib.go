package main

import (
	"math/rand"
	"time"
)

// refSweepMs is the reference machine speed: one calibration sweep takes
// 0.75 ms on this class of VM when nothing else competes for the core.
// round_ms_ref reports every round as if the sweeps around it had taken that
// long; the constant only sets the unit.
const refSweepMs = 0.75

// calibrator is a fixed piece of harness work with the memory behaviour of a
// graph kernel — a sequential sweep over an edge list with a random read of
// a small attribute vector per edge. The shared VM this benchmark runs on
// changes speed by a factor of up to 1.5 for minutes to hours at a time (a
// busy neighbour shows up as slower instructions, not as steal), and the
// wall time of identical rounds with it, by more than the largest bound a
// gated metric may have. Timing this loop right before and after each round
// says how fast the machine was around it, and dividing by it takes the
// state of the machine out. README.md, Evidence, has both sides measured.
//
// The loop is part of the unit of round_ms_ref. Changing it changes what
// that metric means, so it must not change.
type calibrator struct {
	edges []uint32
	attr  []float32
	sink  float32
}

func newCalibrator() *calibrator {
	const vertices, edges = 1 << 16, 1 << 20
	r := rand.New(rand.NewSource(42))
	c := &calibrator{edges: make([]uint32, edges), attr: make([]float32, vertices)}
	for i := range c.edges {
		c.edges[i] = uint32(r.Intn(vertices))
	}
	for i := range c.attr {
		c.attr[i] = r.Float32()
	}
	return c
}

// speed times 9 sweeps one by one and returns the machine-speed factor: the
// median sweep time over the reference sweep time, 1 on a quiet machine,
// above 1 on a slowed one. The median of short sweeps, because a vCPU stolen
// for a few milliseconds in the middle of the sample is not the machine
// speed the neighbouring measurement saw.
func (c *calibrator) speed() float64 {
	var sweeps [9]float64
	for s := range sweeps {
		t0 := time.Now()
		var acc float32
		for _, e := range c.edges {
			acc += c.attr[e]
		}
		c.sink += acc
		sweeps[s] = float64(time.Since(t0)) / 1e6
	}
	return median(sweeps[:]) / refSweepMs
}
