package core

import (
	"context"
	"fmt"
)

// PredictBatch evaluates a batch of configurations through one evaluator:
//
//   - Warm entries chain sequentially through PredictWarm: each solve
//     seeds the pool the next one warm-starts from.
//   - ColdStart entries run sequential cold predictions, bit-identical to
//     per-config Predict.
//
// Results match per-config Predict calls within the warm-start tolerance
// (1e-6 relative, property-tested); ColdStart entries are bit-identical.
// The first failing config aborts the batch with its index wrapped in the
// error. Cold entries are processed after the warm ones (they neither read
// nor feed the warm pool, so the reordering is unobservable in results).
func (p *Predictor) PredictBatch(cfgs []Config) ([]Prediction, error) {
	return p.PredictBatchContext(context.Background(), cfgs)
}

// PredictBatchContext is PredictBatch honoring ctx between outer rounds
// (see PredictContext).
func (p *Predictor) PredictBatchContext(ctx context.Context, cfgs []Config) ([]Prediction, error) {
	out := make([]Prediction, len(cfgs))
	var cold []int
	for i := range cfgs {
		if cfgs[i].ColdStart {
			cold = append(cold, i)
			continue
		}
		pred, err := p.predictWarm(ctx, cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch config %d: %w", i, err)
		}
		out[i] = pred
	}
	for _, i := range cold {
		pred, err := p.predict(ctx, cfgs[i], nil, false)
		if err != nil {
			return nil, fmt.Errorf("core: batch config %d: %w", i, err)
		}
		out[i] = pred
	}
	return out, nil
}
