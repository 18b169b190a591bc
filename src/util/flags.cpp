#include "util/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace ge::util {
namespace {

bool parse_bool(const std::string& text, bool fallback) {
  if (text == "true" || text == "1" || text == "yes" || text == "on" || text.empty()) {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return fallback;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
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
  std::fprintf(stderr, "%.*s: unknown flag%s %s (see docs/CLI.md)\n",
               static_cast<int>(program.size()), program.data(),
               names.size() > 1 ? "s" : "", list.c_str());
  std::exit(2);
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
  return std::strtod(v->c_str(), nullptr);
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t default_value) const {
  auto v = find(name);
  if (!v || v->empty()) {
    return default_value;
  }
  return std::strtoll(v->c_str(), nullptr, 10);
}

bool Flags::get_bool(std::string_view name, bool default_value) const {
  auto v = find(name);
  if (!v) {
    return default_value;
  }
  return parse_bool(*v, default_value);
}

std::vector<double> Flags::get_double_list(std::string_view name,
                                           std::vector<double> default_value) const {
  auto v = find(name);
  if (!v || v->empty()) {
    return default_value;
  }
  std::vector<double> out;
  const std::string& text = *v;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    out.push_back(std::strtod(text.substr(pos, comma - pos).c_str(), nullptr));
    pos = comma + 1;
  }
  return out;
}

}  // namespace ge::util
