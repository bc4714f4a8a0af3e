package active

import "albadross/internal/ml"

// NewCommittee returns an unfitted committee over the base factory.
func NewCommittee(factory ml.Factory, cfg CommitteeConfig) *TrainedCommittee {
	if cfg.Members <= 0 {
		cfg.Members = 5
	}
	return &TrainedCommittee{Cfg: cfg, Factory: factory}
}

// NewCommitteeFactory adapts NewCommittee into an ml.Factory, for use as
// a Loop.Factory.
func NewCommitteeFactory(factory ml.Factory, cfg CommitteeConfig) ml.Factory {
	return func() ml.Classifier { return NewCommittee(factory, cfg) }
}
