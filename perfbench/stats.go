package main

import (
	"bufio"
	"bytes"
	"os"
	"sort"
	"strconv"
)

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsToMS converts nanosecond samples to milliseconds.
func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// maxRSSMB is the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func maxRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
