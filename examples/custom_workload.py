#!/usr/bin/env python
"""Write your own kernel against the SKE public API and run it unmodified
on every multi-GPU architecture.

The point of scalable kernel execution (Section III) is that a kernel
written for ONE GPU runs across N GPUs with no source changes: you describe
a grid of CTAs and what each CTA does; the SKE runtime splits the grid and
the shared page table makes every GPU see the same memory.

This example builds a tiled matrix-vector multiply (y = A @ x): each CTA
owns a block of rows, re-reads the shared vector x, streams its rows of A,
and writes its slice of y.
"""

from repro import TABLE_III, get_spec, run_workload
from repro.core.kernel import Access, Kernel, Phase
from repro.mem import AccessType
from repro.workloads import KernelStep, Region, Workload

LINE = 128

ROWS_PER_CTA = 8
NUM_CTAS = 192
COLS_LINES = 16  # matrix row length in cache lines

A = Region(base=0x10_0000_0000, lines=NUM_CTAS * ROWS_PER_CTA * COLS_LINES)
X = Region(base=0x20_0000_0000, lines=COLS_LINES)
Y = Region(base=0x30_0000_0000, lines=NUM_CTAS * ROWS_PER_CTA // 16 + 1)


def matvec_cta(cta: int):
    """One CTA: for each of its rows, read x (shared) + the row, mac it."""
    phases = []
    for row in range(ROWS_PER_CTA):
        row_base = (cta * ROWS_PER_CTA + row) * COLS_LINES
        accesses = [
            Access(X.line_addr(i), LINE, AccessType.READ) for i in range(COLS_LINES)
        ]
        accesses += [
            Access(A.line_addr(row_base + i), LINE, AccessType.READ)
            for i in range(COLS_LINES)
        ]
        accesses.append(
            Access(Y.line_addr((cta * ROWS_PER_CTA + row) // 16), LINE, AccessType.WRITE)
        )
        # ~2 fused multiply-adds per element at 1.4 GHz.
        phases.append(Phase(compute_ps=COLS_LINES * 32 * 2 * 714, accesses=tuple(accesses)))
    return phases


def matvec_workload() -> Workload:
    """The whole program: copy A and x in, run the kernel, copy y out."""
    kernel = Kernel("matvec", grid_dim=(NUM_CTAS,), cta_program=matvec_cta)
    return Workload(
        name="matvec",
        steps=[KernelStep(kernel)],
        h2d_bytes=A.bytes + X.bytes,
        d2h_bytes=Y.bytes,
        description="tiled y = A @ x",
    )


def main() -> None:
    workload = matvec_workload()
    kernel = workload.steps[0].kernel

    print(f"custom kernel: {kernel.name}, {kernel.num_ctas} CTAs, "
          f"A={A.bytes >> 20} MiB")
    header = f"{'arch':8s} {'kernel':>10s} {'memcpy':>10s} {'kernel+memcpy':>14s}"
    print(header)
    print("-" * len(header))
    for arch in TABLE_III:
        r = run_workload(get_spec(arch), workload)
        print(
            f"{arch:8s} {r.kernel_ps / 1e6:9.2f}us {r.memcpy_ps / 1e6:9.2f}us "
            f"{(r.kernel_ps + r.memcpy_ps) / 1e6:13.2f}us"
        )
    print("\nThe same kernel object ran on 1 PCIe switch, 2 memory-network "
          "variants, and the unified memory network — zero source changes.")


if __name__ == "__main__":
    main()
