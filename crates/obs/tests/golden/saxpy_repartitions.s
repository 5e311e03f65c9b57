# saxpy, one element per thread, after three repartitions.
#
# The program behind the exporter goldens in tests/trace_golden.rs. Its
# `vltcfg`s ask for 2, then 8, then 4 VLT threads before the loop, so a
# trace carries a repartition that drains, one that a 4-thread machine
# clamps and one that changes nothing. Each thread's single element runs
# with vl 1, below every partition's lane count, so the lane tracks
# carry `masked` slices beside the active ones.

    .data
xs: .double 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
ys: .double 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0

    .text
    li      x9, 2
    vltcfg  x9
    li      x9, 8
    vltcfg  x9                 # clamped on a 4-thread vector unit
    li      x9, 4
    vltcfg  x9
    tid     x10
    li      x11, 1             # elements per thread
    mul     x12, x10, x11      # lo
    add     x13, x12, x11      # hi
    la      x20, xs
    la      x21, ys
    li      x4, 2
    fcvt.f.x f1, x4            # a = 2.0
    mv      x14, x12           # i
loop:
    sub     x3, x13, x14
    setvl   x2, x3             # vl = min(remaining, MVL)
    slli    x4, x14, 3
    add     x5, x20, x4
    vld     v1, x5             # x[i..]
    add     x6, x21, x4
    vld     v2, x6             # y[i..]
    vfma.vs v2, v1, f1         # y += a*x
    vst     v2, x6
    add     x14, x14, x2
    blt     x14, x13, loop
    barrier
    halt
