#!/usr/bin/env bash
# Graceful-drain contract, end to end (invoked from the dune runtest rule):
# a daemon draining mid-sweep answers "partial", journals the completed
# prefix and exits 5; resuming that journal with `hlsc explore --resume`
# reproduces the uninterrupted frontier byte for byte (the daemon runs
# under the CLI's default configuration fingerprint, so the journal is
# interchangeable).  Usage: serve_drain.sh HLSC
set -eu

HLSC=$1
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
GRID=(--design fir8 --clocks 2000:2900:100 --flows slack)

set +e
"$HLSC" serve --once --journal "$DIR/serve_drain.journal" --cache "$DIR/serve_drain.cache" \
  --drain-after-points 5 \
  --request '{"op":"explore","design":"fir8","clocks":"2000:2900:100","flows":"slack","id":"e1"}' \
  >"$DIR/drain.out" 2>&1
code=$?
set -e
if [ "$code" != 5 ]; then
  echo "serve drain: expected exit 5, got $code" >&2
  cat "$DIR/drain.out" >&2
  exit 1
fi
grep -q '"status":"partial"' "$DIR/drain.out" || {
  echo "serve drain: the draining daemon did not answer \"partial\"" >&2
  exit 1
}
"$HLSC" explore "${GRID[@]}" --resume "$DIR/serve_drain.journal" --csv "$DIR/resumed.csv" \
  >/dev/null 2>&1
"$HLSC" explore "${GRID[@]}" --csv "$DIR/ref.csv" >/dev/null 2>&1
cmp "$DIR/ref.csv" "$DIR/resumed.csv"
echo "serve drain: resumed frontier matches the uninterrupted run"
