// Package bonds is a Go port of the Bonds benchmark from the GPU
// financial suite of Grauer-Gray et al.: valuing a portfolio of
// fixed-rate bonds under a flat forward curve. For every bond the kernel
// builds its semiannual cashflow schedule, discounts each flow with
// compounded forward rates, and computes the accrued interest, clean and
// dirty prices, and yield-to-maturity by Newton iteration.
//
// QoI: the accrued interest of each bond. Metric: RMSE (Table I).
package bonds

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Config sizes the portfolio.
type Config struct {
	NumBonds int
	Seed     int64
}

// DefaultConfig sizes the portfolio so the accurate path dominates the
// runtime but a single run stays in the millisecond range.
func DefaultConfig() Config { return Config{NumBonds: 8192, Seed: 13} }

// Instance is one generated portfolio plus result buffers.
type Instance struct {
	Cfg Config

	// Per-bond varying parameters (the region inputs):
	// Coupon rate (annual), flat forward/discount rate, maturity in
	// years from issue, and the settlement point as a fraction of the
	// current coupon period.
	Coupon   []float64
	Rate     []float64
	Maturity []float64
	Settle   []float64

	// Outputs (the region outputs / QoI):
	Accrued    []float64
	DirtyPrice []float64
	CleanPrice []float64
	YTM        []float64
}

// New generates a deterministic portfolio.
func New(cfg Config) (*Instance, error) {
	if cfg.NumBonds <= 0 {
		return nil, fmt.Errorf("bonds: NumBonds must be positive, got %d", cfg.NumBonds)
	}
	in := &Instance{
		Cfg:        cfg,
		Coupon:     make([]float64, cfg.NumBonds),
		Rate:       make([]float64, cfg.NumBonds),
		Maturity:   make([]float64, cfg.NumBonds),
		Settle:     make([]float64, cfg.NumBonds),
		Accrued:    make([]float64, cfg.NumBonds),
		DirtyPrice: make([]float64, cfg.NumBonds),
		CleanPrice: make([]float64, cfg.NumBonds),
		YTM:        make([]float64, cfg.NumBonds),
	}
	in.RandomizeBonds(cfg.Seed + 1)
	return in, nil
}

// RandomizeBonds refreshes the portfolio parameters: coupons 2–10%,
// rates 1–9%, maturities 1–30 years, settlement anywhere in the period.
func (in *Instance) RandomizeBonds(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < in.Cfg.NumBonds; i++ {
		in.Coupon[i] = 0.02 + 0.08*rng.Float64()
		in.Rate[i] = 0.01 + 0.08*rng.Float64()
		in.Maturity[i] = 1 + 29*rng.Float64()
		in.Settle[i] = rng.Float64()
	}
}

const (
	faceValue   = 100.0
	periodsYear = 2 // semiannual coupons
)

// ComputeValuations is the accurate execution path: full valuation of
// every bond in the portfolio.
func (in *Instance) ComputeValuations() {
	parallel.For(in.Cfg.NumBonds, func(i int) {
		acc, dirty, clean, ytm := Value(in.Coupon[i], in.Rate[i], in.Maturity[i], in.Settle[i])
		in.Accrued[i] = acc
		in.DirtyPrice[i] = dirty
		in.CleanPrice[i] = clean
		in.YTM[i] = ytm
	})
}

// The synthetic calendar: months of alternating lengths summing to a
// 365-day year, as the original benchmark's QuantLib-derived date code
// walks real month tables. Dates are day numbers from the bond's issue.
var monthDays = [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

const daysPerYear = 365

// dayOfMonthStart walks the calendar month by month — the date-arithmetic
// loop that dominates the original Bonds kernel's cost.
func dayOfMonthStart(month int) int {
	days := 0
	for m := 0; m < month; m++ {
		days += monthDays[m%12]
	}
	return days
}

// yearFractionActual is the ACT/365 day-count fraction between two day
// numbers.
func yearFractionActual(d0, d1 int) float64 {
	return float64(d1-d0) / daysPerYear
}

// Value performs the full fixed-rate bond valuation under a flat forward
// curve and returns (accrued interest, dirty price, clean price, yield).
// Cashflow dates come from the synthetic calendar (semiannual coupons at
// 6-month steps), and every flow's discount time is a day-count fraction
// — matching where the original GPU benchmark spends its cycles.
//
// settle is the fraction of the current coupon period already elapsed at
// settlement; maturity counts years remaining from the start of the
// current period.
func Value(coupon, rate, maturity, settle float64) (accrued, dirty, clean, ytm float64) {
	couponAmt := faceValue * coupon / periodsYear
	nFlows := int(math.Ceil(maturity * periodsYear))
	if nFlows < 1 {
		nFlows = 1
	}
	// Settlement day within the first coupon period.
	periodDays := dayOfMonthStart(12 / periodsYear) // first period length in days
	settleDay := int(settle * float64(periodDays))

	// Accrued interest: coupon prorated by elapsed days (ACT/period).
	accrued = couponAmt * float64(settleDay) / float64(periodDays)

	// Dirty price: discount every remaining cashflow at the flat forward
	// rate with continuous compounding from the settlement date, with
	// each flow's date resolved through the calendar walk.
	for k := 1; k <= nFlows; k++ {
		flowDay := dayOfMonthStart(k * 12 / periodsYear)
		tFlow := yearFractionActual(settleDay, flowDay)
		flow := couponAmt
		if k == nFlows {
			flow += faceValue
		}
		dirty += flow * math.Exp(-rate*tFlow)
	}
	clean = dirty - accrued

	// Yield to maturity by Newton iteration on the dirty price, from a
	// fixed initial guess (the pricer does not know the curve is flat).
	// Flow dates are re-resolved through the calendar per iteration, as
	// the original kernel recomputes its schedule inside the solver loop.
	ytm = 0.05
	for iter := 0; iter < 40; iter++ {
		var price, dPrice float64
		for k := 1; k <= nFlows; k++ {
			flowDay := dayOfMonthStart(k * 12 / periodsYear)
			tFlow := yearFractionActual(settleDay, flowDay)
			flow := couponAmt
			if k == nFlows {
				flow += faceValue
			}
			df := math.Exp(-ytm * tFlow)
			price += flow * df
			dPrice -= tFlow * flow * df
		}
		diff := price - dirty
		if math.Abs(diff) < 1e-10 || dPrice == 0 {
			break
		}
		ytm -= diff / dPrice
	}
	return accrued, dirty, clean, ytm
}

// Directives returns the 4-directive HPAC-ML annotation (Table II): four
// per-bond parameters gather into one tensor; the accrued-interest QoI
// scatters back through an inline functor application.
func Directives(model, db string) string {
	return fmt.Sprintf(`
#pragma approx tensor functor(bond_in: [i, 0:4] = ([i]))
#pragma approx tensor functor(acc_out: [i, 0:1] = ([i]))
#pragma approx tensor map(to: bond_in(coupon[0:NB], rate[0:NB], maturity[0:NB], settle[0:NB]))
#pragma approx ml(predicated:useModel) in(coupon, rate, maturity, settle) out(acc_out(accrued[0:NB])) model(%q) db(%q)
`, model, db)
}
