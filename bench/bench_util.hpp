// Shared plumbing for the bench binaries: comma-separated list parsing
// for flags and a minimal JSON emitter for the checked-in BENCH_*.json
// baselines. Every bench that writes a baseline goes through JsonWriter
// so the files share one shape:
//
//   {
//     "bench": "...", <scalar header fields>,
//     "<sweep>": [
//       {"k": 2, "max_load": 14, ...},
//       ...
//     ]
//   }
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "support/flags.hpp"
#include "traffic/load.hpp"

namespace dcnt {

/// Shared command-line entry for every bench binary. Handles `--help`
/// (prints the description and the accepted flags, exits 0) and
/// rejects flags outside `known` (prints the offender and the same
/// usage to stderr, exits 2); otherwise returns the parsed flags.
/// Every bench routes through this so a typo'd flag fails loudly
/// instead of silently running the default experiment.
Flags parse_bench_flags(int argc, char** argv, const std::string& description,
                        const std::vector<std::string>& known);

/// The comma list of flag `--key` (or `fallback` when absent):
/// "2,3,4" -> {2, 3, 4}; an empty value yields an empty list. A
/// malformed item (`--k_list=2,x`, `--k_list=2,,3`) prints the flag
/// name and exits 2, as a malformed scalar value does.
std::vector<std::int64_t> parse_int_list(const Flags& flags,
                                         const std::string& key,
                                         const std::string& fallback);

/// As parse_int_list: "0,0.05,0.2" -> {0.0, 0.05, 0.2}.
std::vector<double> parse_double_list(const Flags& flags,
                                      const std::string& key,
                                      const std::string& fallback);

/// "tree,central" -> {"tree", "central"}.
std::vector<std::string> parse_string_list(const std::string& text);

/// Reads the open-loop shape flags --shape, --period, --amplitude and
/// --duty into `spec` (an absent flag keeps spec's value). Values
/// traffic::make_shape would abort on are rejected like malformed ones
/// (exit 2 naming the flag): --shape must be constant, burst or
/// diurnal; when `open` (open-loop rows will run) --period must be > 0,
/// --amplitude in [0, 1] and --duty in (0, 1).
void read_shape_flags(const Flags& flags, bool open, traffic::LoadSpec& spec);

/// Streaming writer for the flat JSON baselines the benches emit.
/// Top-level fields go one per line; array rows are single-line
/// objects. The destructor closes the file and announces the path, so
/// a bench just writes fields in order and returns.
class JsonWriter {
 public:
  /// Opens `path` for writing and emits the opening brace.
  /// DCNT_CHECK-fails if the file cannot be opened.
  explicit JsonWriter(std::string path);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void field(const std::string& key, double value, int precision = 3);
  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, const char* value);
  template <typename T,
            typename std::enable_if<std::is_integral<T>::value, int>::type = 0>
  void field(const std::string& key, T value) {
    field_int(key, static_cast<long long>(value));
  }

  /// Starts a top-level array of row objects.
  void begin_array(const std::string& key);
  void end_array();

  /// Starts one single-line row object inside the current array.
  void begin_object();
  void end_object();

 private:
  void field_int(const std::string& key, long long value);
  /// Writes the separator + indentation owed before the next item and
  /// returns the FILE* for the value itself.
  std::FILE* pre_key(const std::string& key);

  std::FILE* f_{nullptr};
  std::string path_;
  bool in_array_{false};
  bool in_row_{false};
  bool first_at_top_{true};
  bool first_in_array_{true};
  bool first_in_row_{true};
};

}  // namespace dcnt
