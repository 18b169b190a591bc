#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace ge::util {
namespace {

// Prints "<program>: <message> (see docs/CLI.md)" and exits with status 2:
// the one way a tool rejects its command line.
[[noreturn]] void usage_error(std::string_view program, const std::string& message) {
  std::fprintf(stderr, "%.*s: %s (see docs/CLI.md)\n",
               static_cast<int>(program.size()), program.data(), message.c_str());
  std::exit(2);
}

// Parses all of `text`, the value of --name, as a T.  Empty text, trailing
// characters and values out of T's range are usage errors.
template <typename T>
T parse_number(std::string_view program, std::string_view name,
               std::string_view text, const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    usage_error(program, "--" + std::string(name) + ": '" + std::string(text) +
                             "' is not " + expected);
  }
  return value;
}

// Parses `text`, the value of --name, as a boolean; an empty value (a bare
// switch) is true and anything unrecognised is a usage error.
bool parse_bool(std::string_view program, std::string_view name,
                std::string_view text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on" || text.empty()) {
    return true;
  }
  if (text != "false" && text != "0" && text != "no" && text != "off") {
    usage_error(program, "--" + std::string(name) + ": '" + std::string(text) +
                             "' is not a boolean (true/false, yes/no, on/off, 1/0)");
  }
  return false;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) {
    const std::string_view path = argv[0];
    program_ = path.substr(path.find_last_of('/') + 1);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_.emplace_back(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
      continue;
    }
    // --name value form: consume the next token if it does not look like a flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_.emplace_back(std::string(arg), std::string(argv[i + 1]));
      ++i;
    } else {
      values_.emplace_back(std::string(arg), std::string());  // boolean switch
    }
  }
}

std::optional<std::string> Flags::find(std::string_view name) const {
  asked_.emplace(name);
  // Last occurrence wins so callers can override defaults on the command line.
  std::optional<std::string> result;
  for (const auto& [key, value] : values_) {
    if (key == name) {
      result = value;
    }
  }
  return result;
}

std::vector<std::string> Flags::unknown() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!asked_.contains(key) &&
        std::find(out.begin(), out.end(), key) == out.end()) {
      out.push_back(key);
    }
  }
  return out;
}

void Flags::exit_on_unknown(std::string_view program) const {
  const std::vector<std::string> names = unknown();
  if (names.empty()) {
    return;
  }
  std::string list;
  for (const std::string& name : names) {
    list += (list.empty() ? "--" : ", --") + name;
  }
  usage_error(program, (names.size() > 1 ? "unknown flags " : "unknown flag ") + list);
}

bool Flags::has(std::string_view name) const { return find(name).has_value(); }

std::string Flags::get_string(std::string_view name, std::string default_value) const {
  auto v = find(name);
  return v ? *v : default_value;
}

double Flags::get_double(std::string_view name, double default_value) const {
  auto v = find(name);
  if (!v || v->empty()) {
    return default_value;
  }
  return parse_number<double>(program_, name, *v, "a number");
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t default_value) const {
  auto v = find(name);
  if (!v || v->empty()) {
    return default_value;
  }
  return parse_number<std::int64_t>(program_, name, *v, "an integer");
}

bool Flags::get_bool(std::string_view name, bool default_value) const {
  auto v = find(name);
  if (!v) {
    return default_value;
  }
  return parse_bool(program_, name, *v);
}

std::vector<double> Flags::get_double_list(std::string_view name,
                                           std::vector<double> default_value) const {
  auto v = find(name);
  if (!v || v->empty()) {
    return default_value;
  }
  std::vector<double> out;
  const std::string_view text = *v;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) {
      comma = text.size();
    }
    out.push_back(parse_number<double>(program_, name, text.substr(pos, comma - pos),
                                       "a comma-separated list of numbers"));
    pos = comma + 1;
  }
  return out;
}

}  // namespace ge::util
