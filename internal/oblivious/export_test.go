package oblivious

import "github.com/coyote-te/coyote/internal/demand"

// SetOnPrune installs PerfTop's pruning hook on ev for external tests.
func SetOnPrune(ev *Evaluator, f func(D *demand.Matrix, mxlu, tau float64)) { ev.onPrune = f }
