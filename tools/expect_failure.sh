#!/bin/sh
# Run a command, echo its standard output and error, and fail unless the
# command exits with an error status (1-127, not a crash) and some line of
# that output matches an extended regex.
#
#   tools/expect_failure.sh REGEX COMMAND [ARGS...]
#
# The counterpart of expect_output.sh: lets a ctest assert that an error
# is both reported and signalled through the exit status, which
# WILL_FAIL alone cannot (it accepts any failure, whatever the message).
set -u
pattern=$1
shift
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -eq 0 ] || [ "$status" -ge 128 ]; then
  echo "expect_failure: command exited with status $status" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -Eq -- "$pattern"; then
  echo "expect_failure: no output line matches '$pattern'" >&2
  exit 1
fi
