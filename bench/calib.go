package main

import (
	"sort"
	"strconv"
	"time"
)

// On the shared 2-core VM this benchmark is run on, the whole machine runs
// up to 1.5x slower for minutes at a time (a neighbour on the host), and
// every timing of a run moves with it: ten runs of one workload then spread
// by 15-30% of their median, whatever is measured and for however long.
// What a run can do is measure how fast the machine is while it runs, with
// work that does not depend on the program, and report its timings at a
// fixed machine speed. speedKernel is that work; README.md has the
// measurements behind it.

// speedKernel is a fixed piece of spreadsheet-like work: format numbers,
// 32768 of them at full size, hash the digits, chase each hash through a
// 4 MiB table, sort the numbers. It allocates nothing after newSpeedKernel,
// so the program's heap and collector do not enter its time.
type speedKernel struct {
	vals, work []float64
	table      []uint64
	buf        []byte
	sink       uint64
}

func newSpeedKernel(numbers int) *speedKernel {
	k := &speedKernel{
		vals:  make([]float64, numbers),
		work:  make([]float64, numbers),
		table: make([]uint64, 1<<19),
		buf:   make([]byte, 0, 32),
	}
	for i := range k.vals {
		k.vals[i] = float64(mix(1, 0, i, 0)%1_000_000_007) * 1.0001
	}
	return k
}

// read runs the kernel twice and returns the faster pass, in ms: the first
// pass finds the caches as the program left them, the second as the kernel
// itself did.
func (k *speedKernel) read() float64 {
	return min(k.pass(), k.pass())
}

func (k *speedKernel) pass() float64 {
	t0 := time.Now()
	h := k.sink
	for _, v := range k.vals {
		k.buf = strconv.AppendFloat(k.buf[:0], v, 'g', -1, 64)
		for _, b := range k.buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		i := h >> 45
		k.table[i] += h
		h ^= k.table[(i*0x9e3779b97f4a7c15)>>45]
	}
	copy(k.work, k.vals)
	sort.Float64s(k.work)
	k.sink = h ^ uint64(k.work[len(k.work)/2])
	return ms(time.Since(t0))
}

// kernelNominalMs is what the kernel reads on the reference VM when the
// machine is quiet; timings are reported at that speed.
const kernelNominalMs = 8.5

// slowdown is the factor the program's timings are taken to be stretched by
// while the kernel reads k ms. Fitted over ten runs of every workload, a
// timing metric grows by 0.5 to 1.6 times the kernel's relative slowdown,
// 1.0 on average, so the factor is the kernel's own.
func slowdown(k float64) float64 { return k / kernelNominalMs }

// readN appends n readings to into. Set-up can be read only at its seams,
// so each seam is read several times.
func (k *speedKernel) readN(into []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		into = append(into, k.read())
	}
	return into
}
