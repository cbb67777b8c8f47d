//go:build !amd64

package record

// avx512 is false where there is no vector kernel: AddSlice folds four
// records at a time.
var avx512 = false

func (c *Checksum) foldBlocks(Slice) int { return 0 }
