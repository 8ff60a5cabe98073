#!/usr/bin/env bash
# Smoke-test sharded availsim runs end to end: a fixed-N and an
# adaptive table must be byte-identical in-process, with two worker
# goroutines, and sharded over two worker processes; a checkpoint
# written under one -shards must resume under another with the same
# table; a -checkpoint run without -shards must split the run into
# more than one claimed range; and a finished checkpoint with one digit
# changed must resume to the clean run's table.
set -euo pipefail

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/availsim" ./cmd/availsim

FIXED=(-disks 4 -lambda 1e-4 -hep 0.01 -iters 20000 -mission 1e5)
ADAPTIVE=(-disks 4 -lambda 1e-4 -hep 0.01 -iters 200000 -mission 1e5 -target-halfwidth 1e-5)

for name in fixed adaptive; do
  if [ "$name" = fixed ]; then args=("${FIXED[@]}"); else args=("${ADAPTIVE[@]}"); fi
  echo "--- $name: in-process, -workers 2, -shards 7 -workers 2 ---"
  "$TMP/availsim" "${args[@]}" >"$TMP/$name.base"
  "$TMP/availsim" "${args[@]}" -workers 2 >"$TMP/$name.workers"
  "$TMP/availsim" "${args[@]}" -shards 7 -workers 2 >"$TMP/$name.sharded"
  cmp "$TMP/$name.base" "$TMP/$name.workers" || { echo "FAIL: $name -workers 2 table differs"; exit 1; }
  cmp "$TMP/$name.base" "$TMP/$name.sharded" || { echo "FAIL: $name sharded table differs"; exit 1; }
  grep -q '^availability' "$TMP/$name.base" || { echo "FAIL: $name table has no availability row"; exit 1; }
done

echo "--- checkpoint written under -shards 3, resumed under -shards 5 ---"
"$TMP/availsim" "${ADAPTIVE[@]}" -shards 3 -workers 2 -checkpoint "$TMP/run.ckpt" >"$TMP/ckpt.first"
"$TMP/availsim" "${ADAPTIVE[@]}" -shards 5 -workers 2 -checkpoint "$TMP/run.ckpt" >"$TMP/ckpt.resumed"
cmp "$TMP/adaptive.base" "$TMP/ckpt.first"   || { echo "FAIL: checkpointed table differs"; exit 1; }
cmp "$TMP/adaptive.base" "$TMP/ckpt.resumed" || { echo "FAIL: resumed table differs"; exit 1; }

echo "--- -checkpoint without -shards records more than one range ---"
"$TMP/availsim" "${FIXED[@]}" -workers 2 -checkpoint "$TMP/default.ckpt" >"$TMP/default.out"
cmp "$TMP/fixed.base" "$TMP/default.out" || { echo "FAIL: default-shards table differs"; exit 1; }
records=$(($(wc -l <"$TMP/default.ckpt") - 1))
[ "$records" -gt 1 ] || { echo "FAIL: checkpoint holds $records range(s), want more than one"; exit 1; }
echo "checkpoint holds $records ranges"

echo "--- a finished checkpoint with one digit changed resumes to the clean table ---"
DAMAGE=(-disks 4 -lambda 1e-4 -hep 0.01 -iters 4096 -mission 1e5 -workers 2 -checkpoint "$TMP/damaged.ckpt")
"$TMP/availsim" "${DAMAGE[@]}" >"$TMP/damaged.clean"
cp "$TMP/damaged.ckpt" "$TMP/damaged.orig"
# On the first record line, the digit after the first "avail" mean's
# "0.99" becomes 0, or 1 when it is 0.
sed -E -i '2{s/("avail":\{"n":[0-9]+,"mean":0\.99)[1-9]/\10/;t;s/("avail":\{"n":[0-9]+,"mean":0\.99)0/\11/}' "$TMP/damaged.ckpt"
if cmp -s "$TMP/damaged.orig" "$TMP/damaged.ckpt"; then echo "FAIL: the edit left the checkpoint unchanged"; exit 1; fi
"$TMP/availsim" "${DAMAGE[@]}" >"$TMP/damaged.resumed"
cmp "$TMP/damaged.clean" "$TMP/damaged.resumed" || { echo "FAIL: the damaged checkpoint changed the table"; exit 1; }

echo "PASS"
