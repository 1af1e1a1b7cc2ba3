// Package report renders small ASCII visualizations — sparklines and
// exact-vs-sketch accuracy tables — so the figure experiments can show their
// series directly in a terminal, next to the paper's plots.
package report

import (
	"math"
	"strings"

	"ebslab/internal/stats"
)

// sparkTicks are the eight sparkline glyphs from lowest to highest.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders xs as a one-line sparkline, downsampling to width
// columns by taking per-bucket maxima (bursts must stay visible). NaNs
// render as spaces. Empty input yields an empty string.
func Sparkline(xs []float64, width int) string {
	if len(xs) == 0 || width <= 0 {
		return ""
	}
	if width > len(xs) {
		width = len(xs)
	}
	buckets := make([]float64, width)
	for i := range buckets {
		lo := i * len(xs) / width
		hi := (i + 1) * len(xs) / width
		if hi <= lo {
			hi = lo + 1
		}
		buckets[i] = stats.Max(xs[lo:hi])
	}
	minV, maxV := stats.Min(buckets), stats.Max(buckets)
	var b strings.Builder
	for _, v := range buckets {
		if math.IsNaN(v) {
			b.WriteRune(' ')
			continue
		}
		idx := 0
		if maxV > minV {
			idx = int((v - minV) / (maxV - minV) * float64(len(sparkTicks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkTicks) {
			idx = len(sparkTicks) - 1
		}
		b.WriteRune(sparkTicks[idx])
	}
	return b.String()
}
