package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the value at the highest percentile that still has
// tailBeyond samples beyond it, and that percentile. With too few
// samples it returns the maximum at percentile 100.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n)
}

// rate returns events per second from sorted event times in seconds:
// block divided by the median time block consecutive events take.
func rate(at []float64, block int) float64 {
	var spans []float64
	for i := 0; i+block < len(at); i += block {
		spans = append(spans, at[i+block]-at[i])
	}
	return float64(block) / median(spans)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mb converts bytes to megabytes (10^6 bytes).
func mb(bytes float64) float64 { return bytes / 1e6 }

// setLatency reports a latency sample set as name_p50_ms and, with
// withTail, name_tail_ms; the details record the tail's percentile and
// the sample count.
func (r *run) setLatency(name string, samples []float64, withTail bool) {
	r.e2e[name+"_p50_ms"] = median(samples)
	info := map[string]any{"samples": len(samples)}
	if withTail {
		v, pct := tail(samples)
		r.e2e[name+"_tail_ms"] = v
		info["tail_percentile"] = pct
	}
	r.details[name+"_latency"] = info
}

const (
	rssEvery  = 10 * time.Millisecond // RSS sampling period
	rssWindow = time.Second           // peak_rss_mb takes one peak per window
)

// rssSampler samples the process's resident set size while a loop runs.
type rssSampler struct {
	stop, done chan struct{}
	start      time.Time
	at         []time.Duration
	mb         []float64
	err        error
}

// startRSS starts sampling every rssEvery until finish.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			v, err := readRSSMB()
			if err != nil {
				s.err = err
				return
			}
			s.at = append(s.at, time.Since(s.start))
			s.mb = append(s.mb, v)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median over rssWindow windows of
// each window's peak RSS: the peak the loop reaches again and again, which
// one stray allocation burst does not move.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, fmt.Errorf("sampling RSS: %w", s.err)
	}
	var peaks []float64
	for i, at := range s.at {
		w := int(at / rssWindow)
		for len(peaks) <= w {
			peaks = append(peaks, 0)
		}
		peaks[w] = math.Max(peaks[w], s.mb[i])
	}
	return median(peaks), nil
}

// readRSSMB reads the resident set size from /proc/self/statm.
func readRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0, err
	}
	return mb(pages * float64(os.Getpagesize())), nil
}

// calibrate times a fixed CPU loop, SHA-256 over 4 MiB, and returns the
// median of calibrationReps timings in milliseconds. The details file
// records it before set-up and after the loop: when the machine's speed
// drifts between runs, the loop's time moves with it, while a change in
// the engine leaves it alone.
func calibrate() float64 {
	const calibrationReps = 7
	buf := make([]byte, 4<<20)
	times := make([]float64, calibrationReps)
	for i := range times {
		start := time.Now()
		sha256.Sum256(buf)
		times[i] = ms(time.Since(start))
	}
	return median(times)
}
