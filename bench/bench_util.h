// Shared helpers for the figure-reproduction bench binaries.
//
// Every table bench accepts an optional `--csv` flag that switches output
// from aligned ASCII tables to RFC-4180 CSV (for plotting scripts), and the
// parallelized benches accept `--threads N` (0 = all hardware threads,
// 1 = serial; output is byte-identical for every value).  All benches
// accept `--telemetry-json <path>` to dump the global telemetry registry
// (counters, gauges, histograms, span tree) as JSON on exit.
#pragma once

#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/args.h"
#include "util/json.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace metis::bench {

/// Quoted, escaped JSON string — the same escaper the telemetry export
/// uses (util/json.h), so baseline writers never emit malformed JSON when
/// a policy or network name grows a quote or backslash.
inline std::string json_str(std::string_view s) { return json::escaped(s); }

/// The flags every table bench takes, parsed through ArgParser: a
/// malformed value or an undeclared flag throws, which run_guarded turns
/// into a one-line diagnostic and exit code 2.
struct TableFlags {
  bool csv = false;            ///< `--csv`
  std::string telemetry_path;  ///< `--telemetry-json <path>`
  /// `--threads N`, declared only by parallelized benches (0 = all
  /// hardware threads).  Thread count is a wall-clock knob only — the
  /// determinism contract (util/parallel.h) guarantees identical output
  /// for every value.
  int threads = 0;
  bool help = false;  ///< `--help` printed the usage; the bench should exit
};

inline TableFlags parse_table_flags(int argc, char** argv,
                                    const std::string& description,
                                    bool parallel) {
  ArgParser args(argc, argv);
  TableFlags flags;
  flags.csv = args.get_bool("csv", false);
  flags.telemetry_path = args.get("telemetry-json", "");
  if (parallel) flags.threads = args.get_int("threads", 0);
  flags.help = args.help_requested();
  if (flags.help) {
    std::cout << args.usage(description);
  } else {
    args.finish();
  }
  return flags;
}

/// A `--shards` value: K >= 1, where 1 is the monolithic solve.  Zero or a
/// negative count throws, which run_guarded turns into a one-line
/// diagnostic and exit code 2.
inline int checked_shards(int shards) {
  if (shards < 1) {
    throw std::invalid_argument(
        "flag --shards expects a positive integer, got: " +
        std::to_string(shards));
  }
  return shards;
}

/// Parses and REMOVES `--shards N` / `--shards=N` from argv; returns 1
/// (monolithic) when absent and throws (checked_shards) on N < 1.  Removal
/// matters for the google-benchmark drivers, whose Initialize() rejects
/// unknown flags; the table benches parse the same flag through ArgParser
/// instead.
inline int take_shards_arg(int& argc, char** argv) {
  int shards = 1;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = ArgParser::parse_int("shards", argv[++i]);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = ArgParser::parse_int("shards", argv[i] + 9);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return checked_shards(shards);
}

/// Parses and REMOVES `--telemetry-json <path>` / `--telemetry-json=<path>`
/// from argv; returns the path, or "" when absent.  Removal matters for the
/// google-benchmark drivers, whose Initialize() rejects unknown flags.
inline std::string take_telemetry_json_arg(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry-json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--telemetry-json=", 17) == 0) {
      path = argv[i] + 17;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return path;
}

/// Writes the global telemetry registry to `path` as JSON.  No-op when
/// `path` is empty.  With METIS_TELEMETRY=OFF this still writes valid JSON
/// ({"telemetry": false}), so plotting scripts never see a missing file.
inline void write_telemetry(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open telemetry output: " + path);
  telemetry::Registry::global().write_json(out);
  out << '\n';
}

/// Prints the table in the selected format.  In CSV mode `title` becomes a
/// comment line so multiple tables in one output stay distinguishable.
inline void emit(const TablePrinter& table, bool csv, const std::string& title) {
  if (csv) {
    if (!title.empty()) std::cout << "# " << title << '\n';
    std::cout << table.to_csv() << '\n';
  } else {
    if (!title.empty()) std::cout << "--- " << title << " ---\n";
    table.print(std::cout);
  }
}

}  // namespace metis::bench
