#!/bin/sh
# Memory-checks the transactional apply/undo engine: builds the tree with
# -fsanitize=address,undefined and runs the tests that stress module
# load/unload churn (ASAN aborts on the first heap error). The transaction
# tests matter most here: every rollback path unloads a group of
# partially-initialized modules, and out-of-order undo rewrites records
# that point into other updates' arenas. The test set is the `sanitize`
# ctest label declared in tests/CMakeLists.txt; tests run one at a time.
set -e
cd "$(dirname "$0")/.."
cmake -B build-asan -G Ninja -DKSPLICE_SANITIZE="address;undefined"
cmake --build build-asan --target sanitize_tests
ctest --test-dir build-asan -L sanitize --output-on-failure
echo "ASAN CHECKS PASSED"
