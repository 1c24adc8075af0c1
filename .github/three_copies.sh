#!/bin/sh
# Usage: .github/three_copies.sh <package> <test target>
# Runs three copies of one release test binary at once, under contention.
bin=$(cargo test --release -p "$1" --test "$2" --no-run 2>&1 \
  | grep -o "target/release/deps/$2-[0-9a-f]*" | head -1)
test -x "$bin" || exit 1
pids=""
for i in 1 2 3; do "$bin" -q & pids="$pids $!"; done
fail=0
for p in $pids; do wait "$p" || fail=1; done
exit $fail
