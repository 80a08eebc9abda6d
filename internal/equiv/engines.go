package equiv

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/dataflow"
)

// CrossCheckEngines runs g under both dataflow engines — the sequential FIFO
// worklist and the bulk-synchronous matrix ticks — and verifies they agree on
// every deterministic observable: terminal outputs, total firing count, and
// stuck-operand count. The dataflow firing rule is confluent (§II-A: a
// fireable vertex stays fireable until it fires, and firings on distinct tags
// commute), so any schedule must reach the same stable state; a disagreement
// is an engine bug, never legitimate nondeterminism. Returns nil when the
// engines agree.
func CrossCheckEngines(ctx context.Context, g *dataflow.Graph, maxSteps int64) error {
	seq, err := dataflow.RunContext(ctx, g, dataflow.Options{MaxFirings: maxSteps})
	if err != nil {
		return fmt.Errorf("equiv: seq engine: %w", markBudget(err))
	}
	res, err := dataflow.RunContext(ctx, g, dataflow.Options{Engine: dataflow.EngineMatrix, MaxFirings: maxSteps})
	if err != nil {
		return fmt.Errorf("equiv: matrix engine: %w", markBudget(err))
	}
	if !reflect.DeepEqual(res.Outputs, seq.Outputs) {
		return fmt.Errorf("equiv: matrix engine outputs diverge from seq: %v vs %v", res.Outputs, seq.Outputs)
	}
	if res.Firings != seq.Firings {
		return fmt.Errorf("equiv: matrix engine fired %d times, seq fired %d", res.Firings, seq.Firings)
	}
	if res.Pending != seq.Pending {
		return fmt.Errorf("equiv: matrix engine left %d pending operands, seq left %d", res.Pending, seq.Pending)
	}
	return nil
}
