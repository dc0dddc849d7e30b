#!/bin/sh
# hgcheck must reject every flag value train_cli rejects with exit 2 (bad
# usage): no SIGFPE, no abort on an uncaught exception, no verdict.
# usage: ci/hgcheck_bad_flags.sh <path to hgcheck>
bin=$1
status=0
# The last three are widths a HalfGNN kernel cannot take: sddmm_halfgnn
# needs a multiple of 8 (GAT), spmm_halfgnn an even width (every model).
for args in "--hidden 0" "--hidden -8" "--dataset 4" "--dataset abc" \
            "--dataset 17" "--epochs -3" "--epochs 0" "--lr nan" "--lr 0" \
            "--seed -1" "--seed abc" \
            "--model gat --hidden 60" "--model gat --hidden 12" \
            "--hidden 63"; do
  # shellcheck disable=SC2086  # $args is a flag and its value
  "$bin" --model gcn $args > /dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "hgcheck $args: exit $code, expected 2"
    status=1
  fi
done
exit $status
