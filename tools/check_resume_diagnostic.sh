#!/bin/sh
# Bad input must end in a diagnostic, never an abort: each binary given is
# run with `--resume` pointing at a file that is not a checkpoint, and must
# exit with code 2 and a message naming that file; an undeclared flag must
# also exit with code 2.  Registered as the `tooling`-labeled ctest
# check_resume_diagnostic (see the top-level CMakeLists.txt); standalone:
#   tools/check_resume_diagnostic.sh <scratch dir> <binary> [<binary> ...]
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <scratch dir> <binary> [<binary> ...]" >&2
  exit 2
fi
dir=$1
shift
mkdir -p "$dir" || exit 1
garbage="$dir/not_a_checkpoint.ckpt"
printf 'this is not a metis checkpoint\n' > "$garbage" || exit 1

fail=0
# Runs <binary> <args...>: prints its output and succeeds on exit code 2,
# else prints a FAIL line for <label> and fails.
expect_exit_2() {  # <label> <binary> <args...>
  label=$1
  shift
  out=$("$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL $label: exit $code, expected 2"
    echo "$out" | tail -n 5
    return 1
  fi
  printf '%s\n' "$out"
}

for bin in "$@"; do
  name=$(basename "$bin")
  label="$name --resume <garbage>"
  if out=$(expect_exit_2 "$label" "$bin" --resume "$garbage"); then
    # The diagnostic is the last line (a bench may print a banner first).
    last=$(printf '%s\n' "$out" | tail -n 1)
    case "$last" in
      *"$garbage"*) echo "ok   $label: $last" ;;
      *)
        echo "FAIL $label: diagnostic does not name the file: $last"
        fail=1
        ;;
    esac
  else
    echo "$out"
    fail=1
  fi
  if out=$(expect_exit_2 "$name --no-such-flag" "$bin" --no-such-flag 1); then
    echo "ok   $name --no-such-flag: $(printf '%s\n' "$out" | tail -n 1)"
  else
    echo "$out"
    fail=1
  fi
done
exit $fail
