#include "util/args.h"

#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace metis {

ArgParser::ArgParser(int argc, const char* const* argv) {
  // Repeating a flag is rejected rather than last-wins: a sweep script that
  // appends `--seed 2` to a template already containing `--seed 1` should
  // fail loudly, not silently drop half its configuration.
  const auto store = [this](const std::string& name, std::string value) {
    if (name.empty()) {
      throw std::invalid_argument("empty flag name: --" + (value.empty() ? "" : "=" + value));
    }
    if (!values_.emplace(name, std::move(value)).second) {
      throw std::invalid_argument("duplicate flag: --" + name);
    }
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      store(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      store(arg, argv[++i]);
    } else {
      store(arg, "true");  // boolean switch
    }
  }
}

std::string ArgParser::get(const std::string& name, const std::string& default_value) {
  // A flag read twice (e.g. once to branch, once to print) is still listed
  // once in usage().
  if (!consumed_.count(name)) declared_.emplace_back(name, default_value);
  consumed_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int ArgParser::get_int(const std::string& name, int default_value) {
  return parse_int(name, get(name, std::to_string(default_value)));
}

int ArgParser::parse_int(const std::string& name, const std::string& raw) {
  try {
    // std::stoi alone stops at the first non-digit ("4x" -> 4), silently
    // accepting a typo'd flag value; require the whole token to parse.
    std::size_t pos = 0;
    const int value = std::stoi(raw, &pos);
    if (pos != raw.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got: " + raw);
  }
}

double ArgParser::get_double(const std::string& name, double default_value) {
  const std::string raw = get(name, std::to_string(default_value));
  try {
    std::size_t pos = 0;
    const double value = std::stod(raw, &pos);
    if (pos != raw.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got: " + raw);
  }
}

bool ArgParser::get_bool(const std::string& name, bool default_value) {
  const std::string raw = get(name, default_value ? "true" : "false");
  if (raw == "true" || raw == "1" || raw == "yes") return true;
  if (raw == "false" || raw == "0" || raw == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got: " + raw);
}

void ArgParser::finish() const {
  for (const auto& [name, _] : values_) {
    if (!consumed_.count(name)) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
  }
}

std::string ArgParser::usage(const std::string& program_description) const {
  std::ostringstream os;
  os << program_description << "\n\nFlags:\n";
  for (const auto& [name, def] : declared_) {
    os << "  --" << name << " (default: " << def << ")\n";
  }
  return os.str();
}

int run_guarded(int argc, char** argv, int (*body)(int, char**)) {
  std::string program = argc > 0 && argv[0] != nullptr ? argv[0] : "metis";
  program = program.substr(program.find_last_of('/') + 1);
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << program << ": " << e.what() << '\n';
    return 2;
  }
}

}  // namespace metis
