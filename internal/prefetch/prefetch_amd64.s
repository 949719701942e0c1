#include "textflag.h"

// func line(p unsafe.Pointer)
TEXT ·line(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	RET
