package predict

import (
	"fmt"
	"math"
)

// GBT is a gradient-boosted regression-tree forecaster over lag features —
// the stand-in for Appendix C's XGBoost/GradientBoostingRegressor. Each
// round fits a depth-limited CART tree to the residuals of the ensemble so
// far (squared loss makes residuals the exact gradients), shrunk by the
// learning rate.
type GBT struct {
	// Lags is the number of trailing values used as features (the paper
	// feeds 120 s of history to predict 30 s, i.e. 4 lags of periods).
	Lags int
	// Trees is the boosting round count.
	Trees int
	// Depth bounds each tree.
	Depth int
	// LearningRate shrinks each tree's contribution.
	LearningRate float64

	base    float64
	forest  []*treeNode
	lastWin []float64
}

// NewGBT returns a boosted-tree predictor with sane defaults for any
// non-positive argument (4 lags, 60 trees, depth 3, rate 0.1).
func NewGBT(lags, trees, depth int, rate float64) *GBT {
	if lags <= 0 {
		lags = 4
	}
	if trees <= 0 {
		trees = 60
	}
	if depth <= 0 {
		depth = 3
	}
	if rate <= 0 {
		rate = 0.1
	}
	return &GBT{Lags: lags, Trees: trees, Depth: depth, LearningRate: rate}
}

// Name implements Predictor.
func (g *GBT) Name() string {
	return fmt.Sprintf("gbt(lags=%d,trees=%d,depth=%d)", g.Lags, g.Trees, g.Depth)
}

// treeNode is one node of a regression tree; leaves have feat == -1.
type treeNode struct {
	feat        int
	thresh      float64
	value       float64
	left, right *treeNode
}

func (n *treeNode) eval(x []float64) float64 {
	for n.feat >= 0 {
		if x[n.feat] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Fit implements Predictor: build the training matrix of lag windows and
// boost trees against residuals.
func (g *GBT) Fit(history []float64) {
	g.forest = g.forest[:0]
	g.lastWin = nil
	n := len(history) - g.Lags
	if len(history) > 0 {
		// The prediction window is always the most recent Lags values
		// (zero-padded when history is short).
		g.lastWin = make([]float64, g.Lags)
		for i := 0; i < g.Lags && i < len(history); i++ {
			g.lastWin[i] = history[len(history)-1-i]
		}
	}
	if n <= 0 {
		if len(history) > 0 {
			g.base = history[len(history)-1]
		} else {
			g.base = 0
		}
		return
	}
	// features[t][i] = value at lag i+1 before target t.
	features := make([][]float64, n)
	targets := make([]float64, n)
	for t := 0; t < n; t++ {
		row := make([]float64, g.Lags)
		for i := 0; i < g.Lags; i++ {
			row[i] = history[t+g.Lags-1-i]
		}
		features[t] = row
		targets[t] = history[t+g.Lags]
	}
	var mean float64
	for _, y := range targets {
		mean += y
	}
	mean /= float64(n)
	g.base = mean

	resid := make([]float64, n)
	for i, y := range targets {
		resid[i] = y - mean
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for round := 0; round < g.Trees; round++ {
		tree := buildTree(features, resid, idx, g.Depth)
		if tree == nil {
			break
		}
		g.forest = append(g.forest, tree)
		for i := range resid {
			resid[i] -= g.LearningRate * tree.eval(features[i])
		}
	}
}

// Predict implements Predictor.
func (g *GBT) Predict() float64 {
	if g.lastWin == nil {
		return clampNonNeg(g.base)
	}
	pred := g.base
	for _, tree := range g.forest {
		pred += g.LearningRate * tree.eval(g.lastWin)
	}
	return clampNonNeg(pred)
}

// buildTree grows a CART regression tree on the index subset by exhaustive
// split search minimizing squared error. It returns nil when the subset is
// degenerate.
func buildTree(features [][]float64, resid []float64, idx []int, depth int) *treeNode {
	if len(idx) == 0 {
		return nil
	}
	var sum float64
	for _, i := range idx {
		sum += resid[i]
	}
	mean := sum / float64(len(idx))
	if depth == 0 || len(idx) < 4 {
		return &treeNode{feat: -1, value: mean}
	}
	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	var baseSSE float64
	for _, i := range idx {
		d := resid[i] - mean
		baseSSE += d * d
	}
	nFeat := len(features[idx[0]])
	for f := 0; f < nFeat; f++ {
		// Candidate thresholds: quartile-ish probes keep the search cheap.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			v := features[i][f]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		for probe := 1; probe <= 7; probe++ {
			th := lo + (hi-lo)*float64(probe)/8
			var sL, sR float64
			var nL, nR int
			for _, i := range idx {
				if features[i][f] <= th {
					sL += resid[i]
					nL++
				} else {
					sR += resid[i]
					nR++
				}
			}
			if nL == 0 || nR == 0 {
				continue
			}
			// SSE reduction = sL^2/nL + sR^2/nR - sum^2/n.
			gain := sL*sL/float64(nL) + sR*sR/float64(nR) - sum*sum/float64(len(idx))
			if gain > bestGain {
				bestFeat, bestThresh, bestGain = f, th, gain
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12*(1+baseSSE) {
		return &treeNode{feat: -1, value: mean}
	}
	var left, right []int
	for _, i := range idx {
		if features[i][bestFeat] <= bestThresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &treeNode{
		feat:   bestFeat,
		thresh: bestThresh,
		left:   buildTree(features, resid, left, depth-1),
		right:  buildTree(features, resid, right, depth-1),
	}
}
