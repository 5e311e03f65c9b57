# table_gather: content-steered gather + in-slice permutation scatter.
#
# The addresses here are *data*, not address arithmetic: `keys` holds
# byte offsets into `vals` (the gather is steered by table content), and
# `perm` holds each thread's slot order inside its own 32-byte slice of
# `out`. No address arithmetic bounds either access, but the tables are
# read-only:
#
#   * `keys[i] ∈ {0, 8, ..., 120}`, so the gather stays inside `vals`;
#   * `perm[i] ∈ {0, 8, 16, 24}`, so each scatter lane lands inside the
#     thread's own slice `out[4*tid .. 4*tid+4]`. The race analysis's
#     observed walk sees exactly that (`vlt lint --races
#     examples/asm/table_gather.s` is clean with zero allow
#     annotations).
#
# Swap `slli x4, x10, 5` for `slli x4, x10, 3` and the slices overlap:
# `--races` reports the write-write conflict.

    .data
keys:                          # byte offsets into vals: 8 * {11,0,8,3,15,6,1,13,4,9,2,12,7,14,5,10}
    .dword 88, 0, 64, 24, 120, 48, 8, 104
    .dword 32, 72, 16, 96, 56, 112, 40, 80
vals:                          # the table the gather reads
    .dword 101, 102, 103, 104, 105, 106, 107, 108
    .dword 109, 110, 111, 112, 113, 114, 115, 116
perm:                          # per-thread slot order: each row permutes {0,8,16,24}
    .dword 16, 0, 24, 8
    .dword 8, 24, 0, 16
    .dword 24, 16, 8, 0
    .dword 0, 8, 16, 24
out:
    .zero 128                  # 4 dwords per thread

    .text
    .eq vlint.threads, 4       # thread count for `vlint --races`
    li      x9, 4
    vltcfg  x9
    tid     x10
    slli    x4, x10, 5         # this thread's 32-byte slice offset
    li      x11, 4
    setvl   x2, x11            # four lanes per thread

    la      x20, keys
    add     x5, x20, x4
    vld     v1, x5             # my four key offsets (content: [0, 120])
    la      x21, vals
    vldx    v2, x21, v1        # gather vals[keys[i] / 8]
    vadd.vv v3, v2, v2         # the "work": double each value

    la      x22, perm
    add     x6, x22, x4
    vld     v4, x6             # my slot order (content: {0,8,16,24})
    la      x23, out
    add     x7, x23, x4        # base of my out slice
    vstx    v3, x7, v4         # permutation scatter inside my slice
    halt
