#!/bin/sh
# bench_crash must fail like the other benches when the report's directory
# is missing: exit 1 with "FAIL: cannot write", and no directory created
# (its checkpoint cells would otherwise create it).
# usage: ci/bench_crash_missing_dir.sh <path to bench_crash>
bin=$1
tmp=$(mktemp -d) || exit 1
status=0
HALFGNN_QUICK=1 "$bin" "$tmp/missing/BENCH_crash.json" > "$tmp/out.txt" 2>&1
code=$?
if [ "$code" -ne 1 ]; then
  echo "bench_crash <missing dir>: exit $code, expected 1"
  status=1
fi
if ! grep -q "FAIL: cannot write" "$tmp/out.txt"; then
  echo "bench_crash <missing dir>: no 'FAIL: cannot write' line"
  status=1
fi
if [ -e "$tmp/missing" ]; then
  echo "bench_crash <missing dir>: created $tmp/missing"
  status=1
fi
rm -rf "$tmp"
exit $status
