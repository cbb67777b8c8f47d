package colsort

import (
	"context"
	"fmt"
	"os"

	"colsort/internal/core"
)

// PlanFile reports the plan Sort with FromFile would execute for the file
// at inPath: its record count padded to the first sortable power of two.
// It lets callers (and `colsort -in ... -plan`) price a file sort without
// running it.
func (e *Engine) PlanFile(alg Algorithm, inPath string) (core.Plan, error) {
	info, err := os.Stat(inPath)
	if err != nil {
		return core.Plan{}, fmt.Errorf("colsort: %w", err)
	}
	z := e.cfg.RecordSize
	if info.Size() == 0 || info.Size()%int64(z) != 0 {
		return core.Plan{}, fmt.Errorf("colsort: input %s is %d bytes, not a positive multiple of the record size %d",
			inPath, info.Size(), z)
	}
	return e.planPadded(alg, info.Size()/int64(z))
}

// WriteFile streams the sorted records (excluding any power-of-two padding,
// and decoded back to the caller's key layout) into a newly created file at
// path, in the global column-major sorted order. Each owned row segment is
// prefetched one step ahead of the file writes, so an async-backed store
// overlaps the output scan with its disk service time.
func (r *Result) WriteFile(path string) error {
	return r.drainTo(context.Background(), ToFile(path))
}
