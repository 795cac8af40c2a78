#!/bin/sh
# Bad input must end in a diagnostic, never an abort or a silent run.  Each
# binary given is run with the bad input its kind takes and must exit with
# code 2, its last output line (the one-line diagnostic) naming the bad
# value:
#   * fuzz_lp: a non-integer `--cases`;
#   * bench_runtime: a non-integer, a zero and a negative `--shards`;
#   * bench_lp_solver: a `--telemetry-json` path that cannot be written;
#   * the bench_fig*/bench_ablation*/bench_sensitivity table benches:
#     `--threads x` (a malformed value where the bench declares the flag,
#     an undeclared flag where it does not);
#   * anything else (the checkpointing benches and examples): `--resume`
#     pointing at a file that is not a checkpoint; bench_multi_cycle also
#     a zero `--shards`.
# Every binary except the two google-benchmark drivers (whose own flag
# parser exits 1 on unknown flags) must also exit 2 on an undeclared flag.
# Registered as the `tooling`-labeled ctest check_resume_diagnostic (see the
# top-level CMakeLists.txt); standalone:
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
unwritable="$dir/no_such_dir/telemetry.json"
# An empty regex filter runs no benchmark, so the google-benchmark drivers
# reach their telemetry write at once.
no_benchmarks='--benchmark_filter=^$'

fail=0
# Runs <binary> <args...> and checks exit code 2 with <needle> on the last
# output line; prints an ok or FAIL line for <label>.
expect_diagnostic() {  # <label> <needle> <binary> <args...>
  label=$1
  needle=$2
  shift 2
  out=$("$@" 2>&1)
  code=$?
  # The diagnostic is the last line (a bench may print a banner first).
  last=$(printf '%s\n' "$out" | tail -n 1)
  if [ "$code" -ne 2 ]; then
    echo "FAIL $label: exit $code, expected 2"
    printf '%s\n' "$out" | tail -n 5
    fail=1
    return
  fi
  case "$last" in
    *"$needle"*) echo "ok   $label: $last" ;;
    *)
      echo "FAIL $label: diagnostic does not name '$needle': $last"
      fail=1
      ;;
  esac
}

for bin in "$@"; do
  name=$(basename "$bin")
  case "$name" in
    fuzz_lp)
      expect_diagnostic "$name --cases abc" "got: abc" "$bin" --cases abc ;;
    bench_runtime)
      for shards in x 0 -3; do
        expect_diagnostic "$name --shards $shards" "got: $shards" "$bin" \
          --shards "$shards" "$no_benchmarks"
      done
      ;;
    bench_lp_solver)
      expect_diagnostic "$name --telemetry-json <unwritable>" "$unwritable" \
        "$bin" --telemetry-json "$unwritable" "$no_benchmarks"
      ;;
    bench_fig* | bench_ablation* | bench_sensitivity)
      expect_diagnostic "$name --threads x" "--threads" "$bin" --threads x ;;
    *)
      expect_diagnostic "$name --resume <garbage>" "$garbage" "$bin" \
        --resume "$garbage"
      ;;
  esac
  case "$name" in
    bench_multi_cycle)
      expect_diagnostic "$name --shards 0" "got: 0" "$bin" --shards 0 ;;
  esac
  case "$name" in
    bench_runtime | bench_lp_solver) ;;
    *)
      expect_diagnostic "$name --no-such-flag" "--no-such-flag" "$bin" \
        --no-such-flag 1
      ;;
  esac
done
exit $fail
