package sim

// branchPredictor is a gshare predictor: a table of 2-bit saturating
// counters indexed by the branch PC xor-folded with global history. Data-
// dependent branches — walking a red-black tree, extract-min on a heap —
// mispredict often, and on Rock a mispredicted branch inside a transaction
// can abort it (CPS=CTI). The predictor state persists across transaction
// attempts, which both helps retries (the predictor learns) and is a source
// of the probe effects the paper describes (fail-path code perturbing
// predictor state).
type branchPredictor struct {
	table   []uint8
	history uint32
	mask    uint32
}

const branchTableBits = 12

func newBranchPredictor() *branchPredictor {
	return &branchPredictor{
		table: take(&retired.branch, 1<<branchTableBits),
		mask:  1<<branchTableBits - 1,
	}
}

// release resets the counters and shelves the table.
func (b *branchPredictor) release() {
	release(&retired.branch, b.table)
	b.table = nil
}

// predict records the outcome of the branch at pc and reports whether the
// prediction was wrong. The two outcome arms are fully split (rather than
// computing the prediction up front and comparing) so the function fits the
// compiler's inlining budget: it is the single hottest call in tree and
// list walks, where call overhead rivals the table update itself. Both
// forms compute the identical counter update, history shift, and
// mispredict verdict.
func (b *branchPredictor) predict(pc uint32, taken bool) bool {
	idx := (pc ^ b.history) & b.mask
	ctr := b.table[idx]
	if taken {
		if ctr < 3 {
			b.table[idx] = ctr + 1
		}
		b.history = (b.history<<1 | 1) & b.mask
		return ctr < 2
	}
	if ctr > 0 {
		b.table[idx] = ctr - 1
	}
	b.history = (b.history << 1) & b.mask
	return ctr >= 2
}
