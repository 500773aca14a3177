package core

import "repro/internal/sim"

// WithThinkTime returns cfg with every client's mean think time set to d.
func WithThinkTime(cfg Config, d sim.Time) Config {
	cfg.thinkTime = d
	return cfg
}

// WithTxnLog returns cfg with every transaction recorded in Results.TxnLog.
func WithTxnLog(cfg Config) Config {
	cfg.logTxns = true
	return cfg
}
