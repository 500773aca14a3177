package tpcc

import (
	"math"

	"repro/internal/sim"
)

// Transaction class names. Payment and orderstatus are split into long and
// short variants — the conditional code paths that would otherwise produce
// bimodal distributions (Section 4.1).
const (
	ClassNewOrder         = "neworder"
	ClassPaymentLong      = "payment-long"
	ClassPaymentShort     = "payment-short"
	ClassOrderStatusLong  = "orderstatus-long"
	ClassOrderStatusShort = "orderstatus-short"
	ClassDelivery         = "delivery"
	ClassStockLevel       = "stocklevel"
)

// Calibration holds the simulated database server's cost model: empirical
// per-class CPU time distributions, row sizes, mix probabilities, and client
// pacing.
//
// SUBSTITUTION (README.md, "Substitutions"): the paper obtains these by
// profiling PostgreSQL with virtualized CPU cycle counters on a PIII-1GHz
// and fitting empirical distributions per class (5000 transactions, initial
// 15 minutes discarded). Without that testbed we embed synthetic empirical
// distributions shaped by the paper's published facts: commit costs just
// under 2 ms for every class, delivery is CPU-bound, payment/orderstatus are
// bimodal and split into homogeneous halves, read-only commits perform no
// I/O, and the aggregate saturation points of Figures 5 and 6 (one CPU
// saturates near 500 clients at roughly 3000 tpm).
type Calibration struct {
	// CPU holds the empirical execution-time distribution per class.
	CPU map[string]*sim.Empirical
	// CommitCPU is the commit operation's processing cost distribution.
	CommitCPU *sim.Empirical
	// ThinkTime is the mean client think time between transactions.
	ThinkTime sim.Time
	// Quantum slices processing into round-robin CPU jobs.
	Quantum sim.Time
	// Mix is the class selection weights: neworder, payment, orderstatus,
	// delivery, stocklevel. Payment and neworder each account for 44% of
	// submitted transactions (Section 3.2).
	MixNewOrder    float64
	MixPayment     float64
	MixOrderStatus float64
	MixDelivery    float64
	// Long-variant probabilities (customer selected by last name).
	PaymentLongFraction     float64
	OrderStatusLongFraction float64
	// RemoteWarehouseFraction is the TPC-C 15% remote-warehouse rule for
	// payment.
	RemoteWarehouseFraction float64
	// NewOrderUserAbortFraction is the TPC-C 1% intentional rollback.
	NewOrderUserAbortFraction float64
	// Row value sizes in bytes (tuples range from 8 to 655 bytes).
	RowWarehouse, RowDistrict, RowCustomer, RowHistory int
	RowOrder, RowNewOrder, RowOrderLine, RowStock      int
}

// lognormSamples builds a deterministic 101-point empirical distribution
// from a log-normal with the given median (ms) and shape sigma, clamped to
// plausible bounds. Using fixed quantile points keeps runs reproducible.
func lognormSamples(medianMS, sigma float64) *sim.Empirical {
	mu := math.Log(medianMS)
	samples := make([]float64, 0, 101)
	for i := 0; i <= 100; i++ {
		q := (float64(i) + 0.5) / 101
		z := probit(q)
		v := math.Exp(mu + sigma*z)
		samples = append(samples, v*float64(sim.Millisecond))
	}
	return sim.NewEmpirical(samples)
}

// probit is the standard normal quantile function (Acklam's rational
// approximation; adequate for generating calibration tables).
func probit(p float64) float64 {
	const (
		a1 = -39.6968302866538
		a2 = 220.946098424521
		a3 = -275.928510446969
		a4 = 138.357751867269
		a5 = -30.6647980661472
		a6 = 2.50662827745924
		b1 = -54.4760987982241
		b2 = 161.585836858041
		b3 = -155.698979859887
		b4 = 66.8013118877197
		b5 = -13.2806815528857
		c1 = -0.00778489400243029
		c2 = -0.322396458041136
		c3 = -2.40075827716184
		c4 = -2.54973253934373
		c5 = 4.37466414146497
		c6 = 2.93816398269878
		d1 = 0.00778469570904146
		d2 = 0.32246712907004
		d3 = 2.445134137143
		d4 = 3.75440866190742
	)
	switch {
	case p <= 0:
		return -8
	case p >= 1:
		return 8
	case p < 0.02425:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p > 1-0.02425:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	}
}

// DefaultCalibration returns the PIII-1GHz / PostgreSQL-shaped cost model.
func DefaultCalibration() *Calibration {
	return &Calibration{
		CPU: map[string]*sim.Empirical{
			ClassNewOrder:         lognormSamples(16, 0.35),
			ClassPaymentLong:      lognormSamples(11, 0.35),
			ClassPaymentShort:     lognormSamples(7, 0.30),
			ClassOrderStatusLong:  lognormSamples(8, 0.35),
			ClassOrderStatusShort: lognormSamples(5, 0.30),
			ClassDelivery:         lognormSamples(110, 0.30),
			ClassStockLevel:       lognormSamples(22, 0.35),
		},
		CommitCPU: lognormSamples(1.8, 0.10),
		ThinkTime: 9 * sim.Second,
		Quantum:   sim.Millisecond,

		MixNewOrder:    0.44,
		MixPayment:     0.44,
		MixOrderStatus: 0.04,
		MixDelivery:    0.04,
		// remainder (0.04) is stocklevel

		PaymentLongFraction:       0.60,
		OrderStatusLongFraction:   0.60,
		RemoteWarehouseFraction:   0.15,
		NewOrderUserAbortFraction: 0.01,

		RowWarehouse: 89,
		RowDistrict:  95,
		RowCustomer:  655,
		RowHistory:   46,
		RowOrder:     24,
		RowNewOrder:  8,
		RowOrderLine: 54,
		RowStock:     306,
	}
}

// ArrivalClass indexes the top-level transaction classes of the submission
// mix — the granularity at which clients choose what to run. The long/short
// variants of payment and orderstatus are picked inside the generator (they
// model conditional code paths, not client intent), so the arrival process
// works at this coarser level.
type ArrivalClass int

// The top-level mix classes, in submission-mix order.
const (
	ArrivalNewOrder ArrivalClass = iota
	ArrivalPayment
	ArrivalOrderStatus
	ArrivalDelivery
	ArrivalStockLevel
	NumArrivalClasses
)

// ArrivalProcess is the parameter set the aggregate client tier draws from:
// the per-class mix weights and the mean think time. It is extracted from a
// Calibration so the aggregate process and the individual clients answer to
// the same calibrated workload definition.
type ArrivalProcess struct {
	// Weights are the per-class submission probabilities; they sum to 1.
	Weights [NumArrivalClasses]float64
	// Think is the mean client think time.
	Think sim.Time
}

// ArrivalProcess extracts the compound arrival-process parameters from the
// calibration. The stocklevel weight is the mix remainder, exactly as
// Generator.Next computes it.
func (c *Calibration) ArrivalProcess() ArrivalProcess {
	p := ArrivalProcess{Think: c.ThinkTime}
	p.Weights[ArrivalNewOrder] = c.MixNewOrder
	p.Weights[ArrivalPayment] = c.MixPayment
	p.Weights[ArrivalOrderStatus] = c.MixOrderStatus
	p.Weights[ArrivalDelivery] = c.MixDelivery
	rest := 1 - c.MixNewOrder - c.MixPayment - c.MixOrderStatus - c.MixDelivery
	if rest < 0 {
		rest = 0
	}
	p.Weights[ArrivalStockLevel] = rest
	return p
}

// Warehouses returns the database scale for a client count.
func Warehouses(clients int) int {
	w := clients / ClientsPerWarehouse
	if w < 1 {
		w = 1
	}
	return w
}
