#!/usr/bin/env bash
# Threaded correctness gate for the solver hot path and remesh pipeline
# (DESIGN.md §9, §11).
#
# 1. Full test suite under PT_NUM_THREADS=4: every suite must pass with the
#    pool enabled. The bitwise-identity tests in test_ksp_threading and
#    test_remesh_fastpath compare threaded results against serial ones,
#    warm solver resources against a cold restore, remesh-every-step no-ops
#    against never remeshing, and the production block-Jacobi and
#    erosion/dilation sweeps against their test-local references.
# 2. The checkpoint/restart and distributed-invariant gate: the full suite
#    again under PT_VALIDATE=1, so every remesh and restart in every test
#    runs the tree/mesh/field invariant validator (DESIGN.md §10).
# 3. ThreadSanitizer over the linear-algebra, CHNS, checkpoint robustness,
#    and remesh fast-path suites (the ones that drive FieldSpace kernels,
#    pooled KSP solves, blocked BSR SpMV, restart-under-fault paths, and
#    the threaded identify/mesh-build loops through the pool), also at
#    PT_NUM_THREADS=4.
# 4. The remesh fast-path suite once more under tsan with PT_VALIDATE=1,
#    so the no-op early exits and incremental rebuilds are invariant-checked
#    while racing the pool.
# 5. The gmg stage (DESIGN.md §13): the V-cycle preconditioner suite and
#    the inter-grid transfer suite (whose plan tests pin the V-cycle's
#    cached transfers bitwise to the per-call ones) serial, with the pool
#    at 4 threads, under tsan at 4 threads, and with PT_VALIDATE=1 (every
#    hierarchy build runs the mesh validator on each coarse level).
# 6. The obs stage (DESIGN.md §12): the telemetry suite serial, with the
#    pool at 4 threads, under tsan at 4 threads (span recording, counter
#    atomicity, and per-thread ring merges race the pool there), and once
#    more with the tracer live (PT_TRACE) while the full release-threads
#    environment is active, with the emitted trace schema-checked by
#    tools/trace_summary.py; then the checker's own dropped-event tests.
# 7. The simd stage (DESIGN.md §8): the kernel-variant and high-order
#    suites with the dispatch forced to the scalar tier (PT_SIMD=scalar —
#    the pre-SIMD engine bitwise) and again with the widest detected tier,
#    serial and with the pool at 4 threads, then under tsan at 4 threads
#    (the vector tiers share read-only operator caches across partitions).
# 8. The ubsan stage: the kernel-variant, high-order, and matvec-plan
#    suites under UndefinedBehaviorSanitizer at release optimization —
#    the intrinsics tiers, pointer alignment tricks, and padded-panel
#    indexing run exactly as shipped.
# 9. The overlap stage (DESIGN.md §15): the split-phase communication
#    suite — exchange clock-credit semantics, ghost/accumulate epoch edge
#    cases, MATVEC and transfer on/off bitwise gates, solver-history
#    identity — serial, with the pool at 4 threads, and under tsan at 4
#    threads (the two-pass engines drive the same per-rank partitions the
#    blocking paths race through the pool).
# 10. The farm stage (DESIGN.md §14): the scenario-farm suite serial, with
#    the pool at 4 threads (concurrent jobs, racing init-state cache,
#    work-stealing task queue), under tsan at 4 threads (the shared
#    read-only cache and job bookkeeping race the pool there), and with
#    PT_VALIDATE=1 (every job's remeshes and restores run the invariant
#    validator).
#
# Usage: ./tools/run_threaded_checks.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ctest (release, PT_NUM_THREADS=4) =="
cmake --preset release >/dev/null
cmake --build --preset release -- -j"$(nproc)"
ctest --preset release-threads "$@"

echo "== ctest (release, PT_VALIDATE=1 invariant gate) =="
ctest --preset release-validate "$@"

echo "== ctest (tsan, PT_NUM_THREADS=4, la/chns/ksp/checkpoint/remesh suites) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan \
  --target test_la test_chns test_ksp_threading test_checkpoint_robustness \
  test_remesh_fastpath \
  -- -j"$(nproc)"
ctest --preset tsan \
  -R 'test_(la|chns|ksp_threading|checkpoint_robustness|remesh_fastpath)$' "$@"

echo "== tsan + PT_VALIDATE=1 remesh fast-path suite =="
PT_VALIDATE=1 ctest --preset tsan -R 'test_remesh_fastpath$' "$@"

echo "== gmg: V-cycle + transfer suites (serial, threads=4, tsan, PT_VALIDATE=1) =="
# The GMG preconditioner suite (DESIGN.md §13): hierarchy construction,
# transfer-plan caching, V-cycle contraction, thread-count bitwise
# identity, and the chns-level hierarchy cache tests; with it the
# inter-grid suite (plan applies bitwise equal to transferNodal /
# transferCell, one exchange per apply) — serial, with the pool at 4
# threads, under tsan at 4 threads, and invariant-checked.
ctest --preset release -R 'test_(gmg|intergrid)$' "$@"
ctest --preset release-threads -R 'test_(gmg|intergrid)$' "$@"
cmake --build --preset tsan --target test_gmg test_intergrid -- -j"$(nproc)"
ctest --preset tsan -R 'test_(gmg|intergrid)$' "$@"
PT_VALIDATE=1 ctest --preset release -R 'test_(gmg|intergrid)$' "$@"

echo "== obs: telemetry suite (serial, threads=4, tsan) =="
ctest --preset release -R 'test_obs$' "$@"
ctest --preset release-threads -R 'test_obs$' "$@"
cmake --build --preset tsan --target test_obs -- -j"$(nproc)"
ctest --preset tsan -R 'test_obs$' "$@"

echo "== obs: live tracer over the threaded CHNS suite (release-trace preset) =="
# test_chns (not test_obs, which drains the tracer as part of its own
# assertions) so the atexit trace written under PT_TRACE carries the real
# solver/remesh/matvec span timeline; then schema-check it.
rm -f build/tests/ctest_trace.json
ctest --preset release-trace -R 'test_chns$' "$@"
python3 tools/trace_summary.py build/tests/ctest_trace.json
# The checker's own dropped-event contract (warn by default, --no-drops fails).
python3 tests/test_trace_summary.py

echo "== simd: kernel tiers forced scalar / vector, serial + threads=4, tsan =="
# PT_SIMD=scalar pins the pre-SIMD bitwise baseline; the unset run uses the
# widest tier the CPU supports (the tier tests compare every available tier
# against scalar internally either way).
PT_SIMD=scalar ctest --preset release -R 'test_(simd_kernels|highorder)$' "$@"
PT_SIMD=scalar ctest --preset release-threads -R 'test_(simd_kernels|highorder)$' "$@"
ctest --preset release -R 'test_(simd_kernels|highorder)$' "$@"
ctest --preset release-threads -R 'test_(simd_kernels|highorder)$' "$@"
cmake --build --preset tsan --target test_simd_kernels test_highorder -- -j"$(nproc)"
ctest --preset tsan -R 'test_(simd_kernels|highorder)$' "$@"

echo "== ubsan: simd/high-order/matvec suites at release optimization =="
cmake --preset release-ubsan >/dev/null
cmake --build --preset release-ubsan \
  --target test_simd_kernels test_highorder test_matvec_plan -- -j"$(nproc)"
ctest --preset release-ubsan -R 'test_(simd_kernels|highorder|matvec_plan)$' "$@"

echo "== overlap: split-phase comm suite (serial, threads=4, tsan) =="
# The bitwise on/off gate (DESIGN.md §15): every overlap engine — split
# accumulate, two-pass matvecIndexed/matvecCoefBlocks, async transfer
# epoch, and solver histories with the solver's comm switched back to
# blocking (SimComm::setOverlapEnabled(false)) — must match the blocking
# path exactly, serial and with the pool at 4 threads, and run clean under
# tsan.
ctest --preset release -R 'test_overlap$' "$@"
ctest --preset release-threads -R 'test_overlap$' "$@"
cmake --build --preset tsan --target test_overlap -- -j"$(nproc)"
ctest --preset tsan -R 'test_overlap$' "$@"

echo "== farm: scenario-farm suite (serial, threads=4, tsan, PT_VALIDATE=1) =="
ctest --preset release -R 'test_farm$' "$@"
ctest --preset release-threads -R 'test_farm$' "$@"
cmake --build --preset tsan --target test_farm -- -j"$(nproc)"
ctest --preset tsan -R 'test_farm$' "$@"
PT_VALIDATE=1 ctest --preset release -R 'test_farm$' "$@"

echo "threaded checks passed"
