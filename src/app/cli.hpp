// Command-line plumbing shared by the tools (ncfn-run, ncfn-sweep,
// ncfn-plan): strict parsing of `<program> <scenario-file> [--flag
// value]...`, and writing an output file.
//
// Each tool binds every flag it accepts to the variable the flag sets,
// then parses. Parsing rejects an unknown flag, a flag with no value, a
// flag given twice and a value that is not a number of the bound type,
// so a typo like `--wrokers 4` can no longer run with the defaults. On
// rejection the reason and the usage line go to stderr and the tool
// exits 2.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coding/strparse.hpp"

namespace ncfn::app {

class CliFlags {
 public:
  /// `--flag <metavar>` holding one number, at least `min`.
  template <typename T>
  void num(std::string flag, std::string metavar, T* out,
           T min = std::numeric_limits<T>::lowest()) {
    add(std::move(flag), std::move(metavar), [out, min](std::string_view v) {
      const auto x = coding::parse_num<T>(v);
      if (!x || *x < min) return false;
      *out = *x;
      return true;
    });
  }

  /// `--flag <metavar>` holding a comma-separated list of numbers.
  template <typename T>
  void list(std::string flag, std::string metavar, std::vector<T>* out) {
    add(std::move(flag), std::move(metavar), [out](std::string_view v) {
      std::vector<T> items;
      for (std::size_t pos = 0; pos <= v.size();) {
        const std::size_t comma = std::min(v.find(',', pos), v.size());
        const auto x = coding::parse_num<T>(v.substr(pos, comma - pos));
        if (!x) return false;
        items.push_back(*x);
        pos = comma + 1;
      }
      *out = std::move(items);
      return true;
    });
  }

  /// `--flag <metavar>` holding free text (a file path).
  void text(std::string flag, std::string metavar, std::string* out);

  /// Parse `argv` = program, scenario file, then flag/value pairs, into
  /// the bound variables. Returns the scenario path, or std::nullopt
  /// after printing error() and the usage line to stderr.
  [[nodiscard]] std::optional<std::string> parse(int argc,
                                                 const char* const* argv);

  /// Why the last parse() failed.
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  struct Flag {
    std::string name;
    std::string metavar;
    std::function<bool(std::string_view)> set;
    bool seen = false;
  };
  void add(std::string name, std::string metavar,
           std::function<bool(std::string_view)> set);
  bool scan(int argc, const char* const* argv);
  bool fail(std::string message);
  /// `usage: <program> <scenario-file> [--flag <metavar>]...`.
  [[nodiscard]] std::string usage(const char* program) const;

  std::vector<Flag> flags_;
  std::string error_;
};

/// Write `data` to `path` (binary, truncating). False on any I/O error.
[[nodiscard]] bool write_file(const std::string& path, const std::string& data);

}  // namespace ncfn::app
