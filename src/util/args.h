// Minimal command-line flag parsing for the example and bench binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Unknown flags raise an error so typos are caught immediately; mains
// wrapped in run_guarded report it (and any other escaping exception) as a
// diagnostic with exit code 2.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace metis {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Declares a flag with a default; returns the parsed (or default) value.
  std::string get(const std::string& name, const std::string& default_value);
  int get_int(const std::string& name, int default_value);
  double get_double(const std::string& name, double default_value);
  bool get_bool(const std::string& name, bool default_value);

  /// The strict integer parse behind get_int: the whole token must be an
  /// int, else std::invalid_argument("flag --<name> expects an integer,
  /// got: <raw>").  For mains that strip a flag from argv by hand.
  static int parse_int(const std::string& name, const std::string& raw);

  /// True if --help / -h was passed.
  bool help_requested() const { return help_; }

  /// After all get*() declarations: throws std::invalid_argument if the
  /// command line contained flags that were never declared.
  void finish() const;

  /// Renders declared flags and their defaults (for --help output).
  std::string usage(const std::string& program_description) const;

 private:
  std::map<std::string, std::string> values_;     // parsed from argv
  mutable std::map<std::string, bool> consumed_;  // flags declared via get*
  std::vector<std::pair<std::string, std::string>> declared_;  // name, default
  bool help_ = false;
};

/// Runs a program's main body and turns any exception escaping it — an
/// unknown or malformed flag, an unreadable or corrupt snapshot — into a
/// one-line diagnostic "<program>: <what>" on stderr and exit code 2,
/// instead of std::terminate's abort.
int run_guarded(int argc, char** argv, int (*body)(int, char**));

}  // namespace metis
