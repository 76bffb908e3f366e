#!/bin/sh
# Race-checks the parallel update-creation pipeline: builds the tree with
# -fsanitize=thread and runs the concurrency test plus the SMP hooks test
# (TSAN aborts the process on the first data race). The kanalyze analyzer
# and parser fuzz tests run too: lint executes inside the (parallelized)
# create pipeline, so its metrics updates must stay clean. The runpre
# tests cover matching inside apply transactions, which fan out per unit
# across worker threads that share the machine read-only. The fleet test
# drives wave rollouts at max_in_flight 8, where worker threads share the
# fault injector and the metrics registry. The test set is the `sanitize`
# ctest label declared in tests/CMakeLists.txt; tests run one at a time.
set -e
cd "$(dirname "$0")/.."
cmake -B build-tsan -G Ninja -DKSPLICE_SANITIZE=thread
cmake --build build-tsan --target sanitize_tests
ctest --test-dir build-tsan -L sanitize --output-on-failure
echo "TSAN CHECKS PASSED"
