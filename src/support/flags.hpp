// Minimal --key=value command-line parsing for examples and benches.
// Not a general-purpose flag library: just enough to parameterize the
// experiment binaries (seed, n, k, counter kind, ...).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dcnt {

class Flags {
 public:
  /// Parses argv of the form --key=value or --key value or bare --key
  /// (boolean true). Unrecognized positional arguments are an error.
  Flags(int argc, char** argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// Numeric getters parse the whole value; a malformed one (`--ops=abc`,
  /// `--ops=12x`, an empty value) prints the flag name and exits 2.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// Parses all of `text` as a base-10 integer (resp. a double), the
/// value of flag `--key`; anything else prints the flag name and the
/// value to stderr and exits 2, as an unknown flag does.
std::int64_t parse_int_value(const std::string& key, const std::string& text);
double parse_double_value(const std::string& key, const std::string& text);

/// Returns `text` if it is one of `choices`, the accepted values of
/// flag `--key`; anything else is rejected as above, listing the
/// choices.
std::string parse_choice_value(const std::string& key, const std::string& text,
                               const std::vector<std::string>& choices);

/// Prints "invalid value for --key: 'text' (expected <expected>)" to
/// stderr and exits 2 — the one way every malformed flag value fails.
[[noreturn]] void reject_flag_value(const std::string& key,
                                    const std::string& text,
                                    const std::string& expected);

/// The process-wide thread-count knob, shared by every binary that
/// spins up workers (thread pools, the threaded runtime, benches):
/// `--threads=N` on the command line wins; `--threads=0` or no flag
/// means auto (the DCNT_THREADS environment variable if set, else all
/// hardware threads). Always returns at least 1.
std::size_t threads_from_flags(const Flags& flags,
                               const std::string& key = "threads");

}  // namespace dcnt
