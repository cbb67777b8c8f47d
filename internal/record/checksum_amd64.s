#include "textflag.h"

// The lane offsets of eight consecutive records, in records: idx = lanes·z.
DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
DATA lanes<>+32(SB)/8, $4
DATA lanes<>+40(SB)/8, $5
DATA lanes<>+48(SB)/8, $6
DATA lanes<>+56(SB)/8, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// splitmix64's three constants; the first is also hashSeed.
DATA mix1<>+0(SB)/8, $0x9e3779b97f4a7c15
GLOBL mix1<>(SB), RODATA|NOPTR, $8
DATA mix2<>+0(SB)/8, $0xbf58476d1ce4e5b9
GLOBL mix2<>(SB), RODATA|NOPTR, $8
DATA mix3<>+0(SB)/8, $0x94d049bb133111eb
GLOBL mix3<>(SB), RODATA|NOPTR, $8

// One splitmix64 link of h's eight chains, t scratch:
// h += c1; h = (h ^ h>>30)·c2; h = (h ^ h>>27)·c3; h ^= h>>31.
#define LINK(h, t) \
	VPADDQ  Z1, h, h  \
	VPSRLQ  $30, h, t \
	VPXORQ  t, h, h   \
	VPMULLQ Z2, h, h  \
	VPSRLQ  $27, h, t \
	VPXORQ  t, h, h   \
	VPMULLQ Z3, h, h  \
	VPSRLQ  $31, h, t \
	VPXORQ  t, h, h

// func fold16(p *byte, blocks, size int, sum, mix *[8]uint64)
//
// Lane j of Z6 chains record j of a block's first eight records, lane j of
// Z7 record 8+j; word w of all eight comes in one gather at w·8(base)(idx*1).
// Each block adds its sixteen hashes to sum's lanes and their rotations by
// themselves (mod 64, as Checksum.fold) to mix's.
TEXT ·fold16(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ blocks+8(FP), CX
	MOVQ size+16(FP), DX
	MOVQ sum+24(FP), R8
	MOVQ mix+32(FP), R9

	VPBROADCASTQ DX, Z0
	VPMULLQ      lanes<>(SB), Z0, Z0
	VPBROADCASTQ mix1<>(SB), Z1
	VPBROADCASTQ mix2<>(SB), Z2
	VPBROADCASTQ mix3<>(SB), Z3
	VMOVDQU64    (R8), Z4
	VMOVDQU64    (R9), Z5
	LEAQ         (DX*8), R10 // the second group's offset, 8z
	LEAQ         (R10*2), R11 // a block's length, 16z
	SHRQ         $3, DX       // words per record

block:
	VMOVDQA64 Z1, Z6
	VMOVDQA64 Z1, Z7
	MOVQ      SI, DI
	LEAQ      (SI)(R10*1), BX
	MOVQ      DX, AX

word:
	KXNORB     K1, K1, K1
	KXNORB     K2, K2, K2
	VPGATHERQQ (DI)(Z0*1), K1, Z8
	VPGATHERQQ (BX)(Z0*1), K2, Z9
	VPXORQ     Z8, Z6, Z6
	VPXORQ     Z9, Z7, Z7
	LINK(Z6, Z10)
	LINK(Z7, Z11)
	ADDQ       $8, DI
	ADDQ       $8, BX
	DECQ       AX
	JNZ        word

	VPADDQ  Z6, Z4, Z4
	VPADDQ  Z7, Z4, Z4
	VPROLVQ Z6, Z6, Z10
	VPROLVQ Z7, Z7, Z11
	VPADDQ  Z10, Z5, Z5
	VPADDQ  Z11, Z5, Z5
	ADDQ    R11, SI
	DECQ    CX
	JNZ     block

	VMOVDQU64 Z4, (R8)
	VMOVDQU64 Z5, (R9)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
