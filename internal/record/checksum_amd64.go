package record

// avx512 reports whether AddSlice folds with fold16: the CPU has AVX512F and
// AVX512DQ (CPUID leaf 7) and the OS saves the opmask and ZMM registers
// (OSXSAVE, then XCR0's bits 1, 2 and 5–7), which fails safe where the OS
// enables that state lazily. Tests switch it off for the portable path.
var avx512 = func() bool {
	if top, _, _, _ := cpuid(0, 0); top < 7 { // the highest standard leaf
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(1<<27) == 0 {
		return false
	}
	const f, dq = 1 << 16, 1 << 17
	_, b, _, _ := cpuid(7, 0)
	return b&(f|dq) == f|dq && xcr0()&0xe6 == 0xe6
}()

// foldBlocks folds s's leading whole blocks of sixteen records with fold16
// and returns how many records it folded: none without the kernel. Lanes add
// mod 2⁶⁴ in any order, so the values are Add's record by record. A call
// covers at most maxBlocks blocks: the goroutine cannot be preempted inside
// it.
func (c *Checksum) foldBlocks(s Slice) int {
	blocks := s.Len() / 16
	if !avx512 || blocks == 0 || s.Size%8 != 0 {
		return 0
	}
	const maxBlocks = 4096
	var sum, mix [8]uint64
	for b := 0; b < blocks; b += maxBlocks {
		fold16(&s.Data[b*16*s.Size], min(blocks-b, maxBlocks), s.Size, &sum, &mix)
	}
	for j := range sum {
		c.Sum += sum[j]
		c.Mix += mix[j]
	}
	c.Count += int64(16 * blocks)
	return 16 * blocks
}

// fold16 hashes blocks·16 records of size bytes (a multiple of 8) from p on,
// one splitmix64 chain per ZMM lane, and adds their hashes to sum's lanes
// and their rotations to mix's.
//
//go:noescape
func fold16(p *byte, blocks, size int, sum, mix *[8]uint64)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xcr0() uint32
