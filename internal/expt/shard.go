package expt

import (
	"errors"
	"fmt"
	"sync"

	"fdw/internal/obs"
)

// The distributed campaign runner: fdwexp -shard i/N partitions a
// campaign's cells across N independent invocations by a stable hash
// of cell identity, each shard checkpointing a CampaignManifest after
// every completed cell; fdwexp -merge stitches the manifests back into
// the byte-identical unsharded report. The cell list, the shard
// assignment, and the checkpoint todo order are all derived from
// identity strings, never from worker count or map order, so the
// partition is reproducible on any machine.

// ErrIncomplete marks a shard run that stopped before finishing every
// owned cell (the -cells budget); the manifest on disk is valid and a
// -resume run will pick up the remaining cells. fdwexp exits 3 on it.
var ErrIncomplete = errors.New("expt: shard incomplete (resume to finish)")

// ShardRun configures one RunShard invocation.
type ShardRun struct {
	// Campaign is the campaign name (see ShardableCampaigns).
	Campaign string
	// Index/Total place this run in the partition (1-based).
	Index, Total int
	// Path is the manifest file this run checkpoints to.
	Path string
	// MaxCells, when positive, stops the run after that many cells —
	// the deterministic model of a mid-campaign kill (the todo list is
	// truncated in canonical order before any cell runs).
	MaxCells int
	// Resume loads Path and re-executes only cells its ledger does not
	// mark done. Without Resume an existing manifest is overwritten.
	Resume bool
}

// RunShard executes the cells of opt's campaign owned by shard
// Index/Total, checkpointing the manifest to Path after every
// completed cell (atomic rewrite, so a kill leaves the last good
// checkpoint). It returns the final manifest; the error is
// ErrIncomplete when a MaxCells budget stopped the run early.
func RunShard(opt Options, run ShardRun) (*CampaignManifest, error) {
	h, err := OpenCampaign(run.Campaign, opt)
	if err != nil {
		return nil, err
	}
	slot := ShardSpec{Index: run.Index, Total: run.Total}
	if err := slot.validate(); err != nil {
		return nil, err
	}
	owned := ShardCells(h.Name(), h.ids, run.Index, run.Total)

	stored := map[string]CellRecord{}
	var prior *obs.Snapshot
	if run.Resume {
		if stored, prior, err = LoadBundle(h, run.Path, slot, false); err != nil {
			return nil, fmt.Errorf("expt: resume: %w", err)
		}
	}
	var todo []string
	for _, id := range owned {
		if _, done := stored[id]; !done {
			todo = append(todo, id)
		}
	}
	incomplete := run.MaxCells > 0 && len(todo) > run.MaxCells
	if incomplete {
		todo = todo[:run.MaxCells]
	}

	// checkpoint rewrites Path from the current state under mu, which
	// serializes concurrent cell completions; NewBundle keeps cells in
	// canonical order regardless of completion order.
	var mu sync.Mutex
	checkpoint := func() (*CampaignManifest, error) {
		metrics := prior
		if opt.Obs != nil {
			metrics = obs.MergeSnapshots(prior, opt.Obs.Snapshot())
		}
		m := NewBundle(h, slot, false, owned, stored, metrics)
		return m, m.WriteFile(run.Path)
	}
	err = forEachIndex(opt.workers(), len(todo), func(i int) error {
		rec, err := h.RunCell(todo[i])
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		stored[rec.ID] = rec
		_, err = checkpoint()
		return err
	})
	if err != nil {
		return nil, err
	}

	// A shard with nothing left to run (all resumed, or owning zero
	// cells) still writes its manifest so merge has a complete bundle.
	final, err := checkpoint()
	if err != nil {
		return nil, err
	}
	if incomplete {
		return final, fmt.Errorf("%w: %d of %d cells done (shard %s of %s)",
			ErrIncomplete, final.Ledger.DoneCount(), len(owned), slot, h.Name())
	}
	return final, nil
}
