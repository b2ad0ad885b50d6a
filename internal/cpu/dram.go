package cpu

// dramModel approximates memory-controller contention: the effective DRAM
// latency grows convexly with the core's recent memory-access rate
// (an M/D/1-style 1/(1-utilization) queue). When a workload is bandwidth
// saturated, making its front-end faster does not make memory faster —
// the mechanism behind the MongoDB scan95 anomaly in §VI-B, where
// BOLT-optimized code shifted the bottleneck to DRAM.
type dramModel struct {
	peakPerCycle float64 // service rate: accesses per cycle at saturation
	alpha        float64 // EMA smoothing of the arrival-rate estimate
	rateEMA      float64
	lastCycle    float64
}

func newDRAM(cfg *Config) *dramModel {
	return &dramModel{peakPerCycle: cfg.MemPeakPerCycle, alpha: cfg.MemEMAAlpha}
}

// latency returns the effective latency multiplier-adjusted DRAM latency
// for an access at time nowCycles, and updates the rate estimate.
func (d *dramModel) latency(base float64, nowCycles float64) float64 {
	dt := nowCycles - d.lastCycle
	if dt < 1 {
		dt = 1
	}
	d.lastCycle = nowCycles
	inst := 1 / dt // accesses per cycle, instantaneous
	// Time-scaled EMA: the effective coefficient alpha*dt must be clamped
	// at 1. Past 1 the update overshoots the instantaneous rate — after a
	// long idle gap it would swing negative and get floored to 0, turning
	// "the queue drained" into "the queue estimate is garbage". At k == 1
	// the estimate lands exactly on the instantaneous rate, which is the
	// correct limit for a gap much longer than the EMA horizon.
	k := d.alpha * dt
	if k > 1 {
		k = 1
	}
	d.rateEMA += k * (inst - d.rateEMA)
	if d.rateEMA < 0 {
		d.rateEMA = 0
	}
	util := d.rateEMA / d.peakPerCycle
	if util > 0.95 {
		util = 0.95
	}
	return base / (1 - util)
}
