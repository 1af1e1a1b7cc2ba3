package report

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("width = %d", utf8.RuneCountInString(s))
	}
	if []rune(s)[0] != '▁' || []rune(s)[7] != '█' {
		t.Fatalf("sparkline ends wrong: %q", s)
	}
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty input should render empty")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Fatal("zero width should render empty")
	}
	// Constant series renders uniformly.
	c := Sparkline([]float64{5, 5, 5, 5}, 4)
	for _, r := range c {
		if r != '▁' {
			t.Fatalf("constant series rendered %q", c)
		}
	}
	// NaN renders as space.
	n := Sparkline([]float64{math.NaN(), 1}, 2)
	if []rune(n)[0] != ' ' {
		t.Fatalf("NaN rendered %q", n)
	}
	// Downsampling keeps peaks: a single spike must still hit max height.
	xs := make([]float64, 100)
	xs[37] = 100
	d := Sparkline(xs, 10)
	if !strings.ContainsRune(d, '█') {
		t.Fatalf("peak lost in downsample: %q", d)
	}
}
