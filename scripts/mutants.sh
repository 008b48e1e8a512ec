#!/usr/bin/env bash
# Mutation check: every tests/mutants/*.patch is a one-line break of the
# program, headed by a `# kill: <command>` line naming the test that must
# catch it. The script copies the tree to a temporary directory once, then
# for each patch applies it, runs its kill command there, and takes it back
# out. A mutant is killed when its command reports a failing test, and has
# survived when the command passes; the script prints every mutant's fate
# and exits 1 if any survived (2 if a mutant could not be tested).
#
#   bash scripts/mutants.sh                    # every mutant
#   bash scripts/mutants.sh tests/mutants/x.patch
#
# The copies share one CARGO_TARGET_DIR (a temporary one unless set), so
# each mutant rebuilds only the crates its patch touches.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}

# -m stamps every copied file with the time of the copy: cargo, which keys
# a workspace member's build on its sources' mtimes and not on its path,
# must not reuse artifacts an earlier run built in the shared target dir.
tar -C "$root" --exclude=./target --exclude=./.git -cf - . | (mkdir "$work/tree" && tar -C "$work/tree" -xmf -)

if [ "$#" -eq 0 ]; then
    set -- "$root"/tests/mutants/*.patch
fi
survived=0
for patch in "$@"; do
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    name=$(basename "$patch" .patch)
    kill=$(sed -n 's/^# kill: //p' "$patch" | head -n 1)
    if [ -z "$kill" ]; then
        echo "error: $name has no '# kill:' line"
        exit 2
    fi
    if ! (cd "$work/tree" && git apply "$patch"); then
        echo "error: $name does not apply"
        exit 2
    fi
    if (cd "$work/tree" && eval "$kill") > "$work/$name.log" 2>&1; then
        echo "SURVIVED  $name  ($kill)"
        survived=$((survived + 1))
    elif grep -q '^test result: FAILED' "$work/$name.log"; then
        echo "killed    $name"
    else
        # A mutant that does not build, or a kill command that fails
        # before any test runs, proves nothing.
        tail -n 20 "$work/$name.log"
        echo "error: $name failed without a failing test"
        exit 2
    fi
    # Applying the patch in reverse rewrites the file, so its mtime moves
    # past the mutant's build and cargo rebuilds the original.
    (cd "$work/tree" && git apply -R "$patch")
done
if [ "$survived" -gt 0 ]; then
    echo "$survived mutant(s) survived"
    exit 1
fi
exit 0
