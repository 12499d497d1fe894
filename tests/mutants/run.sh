#!/usr/bin/env bash
# Checks that the test suite still kills every recorded mutant.
#
#     tests/mutants/run.sh
#
# Each line of tests/mutants/MANIFEST names a patch in this directory
# (a deliberately broken copy of the code, a "mutant") and the test
# that must catch it. In a scratch `git worktree` of HEAD, for each
# line, the script requires the test to pass on the unpatched tree,
# applies the patch with `git apply`, requires the mutant to build and
# the test to fail, and reverts the patch. A patch that no longer
# applies, a mutant that does not build, a test that fails unpatched
# and a mutant that survives each fail the run; the PR that moved the
# code refreshes its patch.
#
# Builds go to $CARGO_TARGET_DIR (default `target/mutants` in the
# repository), so later runs and later mutants rebuild only what a
# patch touches.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/mutants}
tree=$(mktemp -d "${TMPDIR:-/tmp}/cpn-mutants.XXXXXX")
log=$tree.log

cleanup() {
    git -C "$root" worktree remove --force "$tree" >/dev/null 2>&1 || true
    rm -rf "$tree" "$log"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tree" HEAD

# cargo test in the worktree: package, test target, then cargo args.
cargo_test() {
    local package=$1 target=$2
    shift 2
    (cd "$tree" && timeout 900 cargo test --offline -q -p "$package" --test "$target" "$@") \
        </dev/null >"$log" 2>&1
}

failures=0
fail() {
    echo "  FAIL: $1"
    sed 's/^/    /' "$log" | tail -n 40
    failures=$((failures + 1))
}

started=$SECONDS
while read -r patch package target name; do
    case "$patch" in '' | '#'*) continue ;; esac
    echo "mutant $patch: $package --test $target $name"
    if ! cargo_test "$package" "$target" -- --exact "$name"; then
        fail "the test fails on the unpatched tree"
        continue
    fi
    if ! git -C "$tree" apply "$here/$patch" >"$log" 2>&1; then
        fail "the patch no longer applies"
        continue
    fi
    if ! cargo_test "$package" "$target" --no-run; then
        fail "the mutant does not build"
    elif cargo_test "$package" "$target" -- --exact "$name"; then
        fail "the mutant survives"
    else
        echo "  killed"
    fi
    git -C "$tree" checkout --quiet -- .
done <"$here/MANIFEST"

echo "mutants: $failures failure(s) in $((SECONDS - started)) s"
[ "$failures" -eq 0 ]
