#!/usr/bin/env bash
# Local sharded sweeps (invoked from the dune runtest rule).  Without
# --workers, `hlsc sweep` leases to --shards `hlsc serve` daemons it
# spawns itself, so every phase here starts daemons.
#
#   phase 1: a 3-shard single-design sweep produces a CSV byte-identical
#            to the single-process run; feeding the same shard journal
#            twice to merge-journals violates disjointness (exit 2).
#   phase 2: a 2-shard corpus sweep writes a summary CSV byte-identical
#            to the 1-shard one, leaves one journal per shard, and each
#            shard log holds its daemon's drain line (the sweep shut the
#            daemon down).
#   phase 3: a source-file sweep, over local daemons and over the local
#            fallback for an unreachable --workers list, is byte-identical
#            to `explore` of the same file.
#
# Run from the directory holding tiny.hls, with ../corpus/manifest.tsv.
set -eu

HLSC=$1
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# ---- phase 1: single design, 3 shards == one process ----

GRID="--design fir8 --clocks 2400:2600:100 --flows conv,slack --ii none,4"
# shellcheck disable=SC2086
"$HLSC" explore $GRID --csv "$DIR/shard_ref.csv" >"$DIR/shard_ref_gen.out"
# shellcheck disable=SC2086
"$HLSC" sweep $GRID --shards 3 --dir "$DIR/shard_out" \
  --csv "$DIR/shard_merged.csv" >"$DIR/shard_sweep_gen.out"
cmp "$DIR/shard_ref.csv" "$DIR/shard_merged.csv"
set +e
"$HLSC" merge-journals "$DIR/shard_out/shard-1.jnl" "$DIR/shard_out/shard-1.jnl" \
  -o "$DIR/shard_dup.jnl" >"$DIR/shard_overlap.out" 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || { echo "overlapping journals: expected exit 2, got $code" >&2; exit 1; }
grep -q "disjoint" "$DIR/shard_overlap.out"

# ---- phase 2: corpus, 2 shards == 1 shard; journals and drain lines ----

M=../corpus/manifest.tsv
"$HLSC" sweep --corpus "$M" --take 2 --shards 1 --dir "$DIR/c1" \
  --csv "$DIR/c1.csv" >"$DIR/c1.out"
"$HLSC" sweep --corpus "$M" --take 2 --shards 2 --dir "$DIR/c2" \
  --csv "$DIR/c2.csv" >"$DIR/c2.out"
cmp "$DIR/c1.csv" "$DIR/c2.csv"
for i in 1 2; do
  test -s "$DIR/c2/shard-$i.jnl"
  grep -q "^hlsc serve: draining" "$DIR/c2/shard-$i.log"
done

# ---- phase 3: source file, local daemons and the local fallback ----

"$HLSC" explore tiny.hls --csv "$DIR/tiny_ref.csv" >"$DIR/tiny_ref.out"
"$HLSC" sweep tiny.hls --shards 2 --dir "$DIR/t1" \
  --csv "$DIR/tiny_sweep.csv" >"$DIR/tiny_sweep.out"
cmp "$DIR/tiny_ref.csv" "$DIR/tiny_sweep.csv"
"$HLSC" sweep tiny.hls --workers "unix:$DIR/no-such-daemon.sock" --dir "$DIR/t2" \
  --csv "$DIR/tiny_fallback.csv" >"$DIR/tiny_fallback.out" 2>&1
grep -q "falling back to" "$DIR/tiny_fallback.out"
cmp "$DIR/tiny_ref.csv" "$DIR/tiny_fallback.csv"

echo "local sweeps: ok"
