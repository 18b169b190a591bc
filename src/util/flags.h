// Minimal command-line flag parser for the bench/example binaries.
//
// Supports --name value and --name=value forms plus typed accessors with
// defaults.  A typed accessor parses the whole value: a malformed one
// ("abc", "1e3" for an integer, "1,,2" for a list, "TRUE" for a boolean) is
// a usage error that names the flag and exits with status 2, like an
// unknown flag.  Every name a getter asks for is recorded; unknown() lists the
// given flags nobody asked for, so a tool that reads all of its flags up
// front can reject a typo or a removed flag instead of ignoring it.  Others
// tolerate them (google-benchmark binaries share argv with their own flags).
// Because lookups record names, even the const accessors must not run
// concurrently on one Flags.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ge::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(std::string_view name) const;
  std::string get_string(std::string_view name, std::string default_value) const;
  double get_double(std::string_view name, double default_value) const;
  std::int64_t get_int(std::string_view name, std::int64_t default_value) const;
  bool get_bool(std::string_view name, bool default_value) const;

  // Parses a comma-separated list of doubles, e.g. --rates 100,150,200.
  std::vector<double> get_double_list(std::string_view name,
                                      std::vector<double> default_value) const;

  // Flag names given on the command line that no accessor has asked for
  // yet, in order of first appearance, each once.
  std::vector<std::string> unknown() const;

  // For a tool that has read every flag it takes: if unknown() is not
  // empty, prints one stderr line naming the flags ("<program>: unknown
  // flag --x (see docs/CLI.md)") and exits with status 2.
  void exit_on_unknown(std::string_view program) const;

  // Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::optional<std::string> find(std::string_view name) const;

  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positional_;
  std::string program_;  // argv[0] without its directory, for usage errors
  mutable std::set<std::string, std::less<>> asked_;
};

}  // namespace ge::util
