#!/bin/sh
# Run a command, echo its standard output, and fail unless the command
# exits 0 and some line of that output matches an extended regex.
#
#   tools/expect_output.sh REGEX COMMAND [ARGS...]
#
# Lets a ctest assert on CLI output without PASS_REGULAR_EXPRESSION,
# which would make ctest ignore the command's exit status.
set -u
pattern=$1
shift
out=$("$@")
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 0 ]; then
  echo "expect_output: command exited with status $status" >&2
  exit "$status"
fi
if ! printf '%s\n' "$out" | grep -Eq -- "$pattern"; then
  echo "expect_output: no output line matches '$pattern'" >&2
  exit 1
fi
