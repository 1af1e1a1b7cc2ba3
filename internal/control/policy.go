package control

import (
	"fmt"

	"ebslab/internal/predict"
)

// SeriesKind names the entity series a policy is asked to forecast.
type SeriesKind uint8

// Series kinds. BS loads are folded through the live placement (so a policy
// sees the effect of its own past migrations), segment series are the raw
// per-segment byte counts (what a migration actually relocates — forecasting
// them keeps segment choice consistent with the BS-level signal), VD series
// are offered demand against the throttle caps, and WT series are derived
// from per-QP counts under the live binding.
const (
	SeriesBS SeriesKind = iota
	SeriesSeg
	SeriesVDBps
	SeriesVDIOPS
	SeriesWT
)

func (k SeriesKind) String() string {
	switch k {
	case SeriesBS:
		return "bs"
	case SeriesSeg:
		return "seg"
	case SeriesVDBps:
		return "vd-bps"
	case SeriesVDIOPS:
		return "vd-iops"
	case SeriesWT:
		return "wt"
	}
	return fmt.Sprintf("series-%d", uint8(k))
}

// Policy is the controller's forecasting plug. The controller owns the
// actuation machinery — exporter scans, lending budgets, rebind selection —
// and every shipped policy differs ONLY in how it forecasts the next epoch,
// so a reactive-vs-predictive comparison isolates exactly the prediction
// question the paper poses. Forecast receives one entity's measured history
// hist[0..e] (oldest first, never empty) and returns the expected value of
// epoch e+1. Implementations may keep per-entity state; the controller calls
// Forecast in a fixed entity order, so stateful policies stay deterministic.
type Policy interface {
	Name() string
	Forecast(kind SeriesKind, id int, hist []float64) float64
}

// FutureAware is the oracle hook: before planning each epoch the controller
// hands the policy a lookup of the TRUE next-epoch value of every series
// (computed from the full observation under the live placement). Policies
// without this interface see only the past.
type FutureAware interface {
	SetFuture(func(kind SeriesKind, id int) float64)
}

// NoOp is the null policy: the controller records nothing and the compiled
// timeline is empty, so an actuated run is byte-identical to an uncontrolled
// run — the metamorphic baseline every controlled run is measured against.
type NoOp struct{}

// Name implements Policy.
func (NoOp) Name() string { return "noop" }

// Forecast implements Policy (never consulted; the controller skips planning
// entirely for the no-op policy).
func (NoOp) Forecast(_ SeriesKind, _ int, hist []float64) float64 {
	return hist[len(hist)-1]
}

// Reactive is the production-style threshold controller: it assumes the next
// epoch looks exactly like the last measured one, so every mitigation fires
// one epoch after the hotspot materializes.
type Reactive struct{}

// Name implements Policy.
func (Reactive) Name() string { return "reactive" }

// Forecast implements Policy.
func (Reactive) Forecast(_ SeriesKind, _ int, hist []float64) float64 {
	return hist[len(hist)-1]
}

// Predictive forecasts with a predict.Predictor per entity series (Holt,
// ARIMA, GBT — anything satisfying the interface), refit on its own cadence.
// With a trend-following model it sees a storm ramp inside an epoch and
// mitigates before the ramp completes, which is the whole §8 argument.
type Predictive struct {
	// Label names the policy in logs and reports (e.g. "predictive-holt").
	Label string
	// New constructs one forecaster; each entity series gets its own.
	New func() predict.Predictor
	// RefitEvery throttles refits per series (<= 1: refit every epoch).
	RefitEvery int
	// UpperEnvelope returns max(model forecast, last observation) instead
	// of the raw model output. Mitigation cost is asymmetric: missing a
	// rising hot spot buys a full epoch of imbalance, while over-forecasting
	// a cooling entity merely delays a re-import — so the shipped predictive
	// policies hedge on the hot side and only let the model ADD urgency
	// beyond persistence, never subtract it.
	UpperEnvelope bool

	models map[seriesID]*fitState
}

type seriesID struct {
	kind SeriesKind
	id   int
}

type fitState struct {
	p       predict.Predictor
	lastFit int
	pred    float64
}

// NewPredictive builds a Predictive policy over the forecaster constructor.
func NewPredictive(label string, mk func() predict.Predictor, refitEvery int) *Predictive {
	return &Predictive{Label: label, New: mk, RefitEvery: refitEvery}
}

// Name implements Policy.
func (p *Predictive) Name() string { return p.Label }

// Forecast implements Policy.
func (p *Predictive) Forecast(kind SeriesKind, id int, hist []float64) float64 {
	if p.models == nil {
		p.models = make(map[seriesID]*fitState)
	}
	key := seriesID{kind, id}
	st := p.models[key]
	if st == nil {
		st = &fitState{p: p.New(), lastFit: -1}
		p.models[key] = st
	}
	refit := p.RefitEvery
	if refit < 1 {
		refit = 1
	}
	now := len(hist) - 1
	if st.lastFit < 0 || now-st.lastFit >= refit {
		st.p.Fit(hist)
		st.lastFit = now
		st.pred = st.p.Predict()
	}
	if p.UpperEnvelope && st.pred < hist[now] {
		return hist[now]
	}
	return st.pred
}

// Oracle forecasts with the true next-epoch value — the upper bound on what
// any predictor could buy the controller. It still obeys the actuation
// machinery (thresholds, budgets), so the gap between oracle and predictive
// is forecasting error, not actuation headroom.
type Oracle struct {
	future func(kind SeriesKind, id int) float64
}

// Name implements Policy.
func (o *Oracle) Name() string { return "oracle" }

// SetFuture implements FutureAware.
func (o *Oracle) SetFuture(f func(kind SeriesKind, id int) float64) { o.future = f }

// Forecast implements Policy.
func (o *Oracle) Forecast(kind SeriesKind, id int, hist []float64) float64 {
	if o.future == nil {
		return hist[len(hist)-1]
	}
	return o.future(kind, id)
}

// ByName constructs one of the shipped policies: "noop", "reactive",
// "predictive" (Holt), "predictive-arima", "predictive-gbt", or "oracle".
//
// The shipped predictive policies all hedge on the hot side (UpperEnvelope),
// and the Holt variant pins Alpha=1, Beta=0.3 rather than grid-searching:
// the level then IS the last observation and the trend term is smoothed
// momentum, so the forecast is exactly "persistence plus ramp" — it reacts
// no slower than the reactive policy and earns its keep on multi-epoch
// storm ramps. (Grid-searched Holt minimizes average SSE, which over-smooths
// the level and lags every onset — measurably worse here than persistence.)
func ByName(name string) (Policy, error) {
	upper := func(p *Predictive) *Predictive { p.UpperEnvelope = true; return p }
	switch name {
	case "noop":
		return NoOp{}, nil
	case "reactive":
		return Reactive{}, nil
	case "predictive", "predictive-holt":
		return upper(NewPredictive("predictive-holt", func() predict.Predictor { return &predict.Holt{Alpha: 1, Beta: 0.3} }, 1)), nil
	case "predictive-arima":
		return upper(NewPredictive("predictive-arima", func() predict.Predictor { return predict.NewARIMA(3, 1) }, 1)), nil
	case "predictive-gbt":
		return upper(NewPredictive("predictive-gbt", func() predict.Predictor { return predict.NewGBT(4, 40, 3, 0.1) }, 2)), nil
	case "oracle":
		return &Oracle{}, nil
	}
	return nil, fmt.Errorf("control: unknown policy %q (want noop, reactive, predictive[-holt|-arima|-gbt], oracle)", name)
}
