#include "support/flags.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace dcnt {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get_string(const std::string& key,
                              const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_int_value(key, it->second);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_double_value(key, it->second);
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

namespace {

template <typename T>
T parse_value(const std::string& key, const std::string& text,
              const char* what) {
  T value{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || end != last) reject_flag_value(key, text, what);
  return value;
}

}  // namespace

std::int64_t parse_int_value(const std::string& key, const std::string& text) {
  return parse_value<std::int64_t>(key, text, "an integer");
}

double parse_double_value(const std::string& key, const std::string& text) {
  return parse_value<double>(key, text, "a number");
}

std::string parse_choice_value(const std::string& key, const std::string& text,
                               const std::vector<std::string>& choices) {
  for (const std::string& choice : choices) {
    if (text == choice) return text;
  }
  std::string expected = "one of ";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) expected += '|';
    expected += choices[i];
  }
  reject_flag_value(key, text, expected);
}

void reject_flag_value(const std::string& key, const std::string& text,
                       const std::string& expected) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
               key.c_str(), text.c_str(), expected.c_str());
  std::exit(2);
}

std::size_t threads_from_flags(const Flags& flags, const std::string& key) {
  const std::int64_t requested = flags.get_int(key, 0);
  DCNT_CHECK_MSG(requested >= 0, "--threads must be >= 0 (0 = auto)");
  return resolve_thread_count(static_cast<std::size_t>(requested));
}

}  // namespace dcnt
