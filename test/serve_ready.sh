# Sourced by the daemon test scripts, which set HLSC (the hlsc binary)
# first.
#
# serve_bg LOG READY ARGS...: start `hlsc serve ARGS` in the background
# with its output copied into LOG, and return once the daemon has printed
# the line that starts with READY.  A relay copies the output line by
# line and hands that line over through a FIFO, so the wait is one
# blocking read, not a sleep-poll.  The line is left in READY_LINE; a
# daemon that exits before printing it fails the script.
#
# The relay opens LOG once: a cleanup that deletes the scratch directory
# while a killed daemon is still printing must not see the file reappear.
relay() {
  told=
  while IFS= read -r line; do
    printf '%s\n' "$line"
    case $line in
      "$2"*) [ -n "$told" ] || { printf '%s\n' "$line" >"$3"; told=1; } ;;
    esac
  done >>"$1"
  [ -n "$told" ] || : >"$3"
}

serve_bg() {
  log=$1 ready=$2
  shift 2
  fifo="$log.ready"
  rm -f "$fifo"
  mkfifo "$fifo"
  "$HLSC" serve "$@" 2>&1 | relay "$log" "$ready" "$fifo" &
  READY_LINE=
  IFS= read -r READY_LINE <"$fifo" || true
  rm -f "$fifo"
  case $READY_LINE in
    "$ready"*) ;;
    *)
      echo "daemon logging to $log exited before printing: $ready" >&2
      cat "$log" >&2
      return 1
      ;;
  esac
}

LISTENING="hlsc serve: listening on "
