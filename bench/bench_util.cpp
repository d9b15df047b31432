#include "bench_util.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace dcnt {

namespace {

void print_usage(std::FILE* out, const char* binary,
                 const std::string& description,
                 const std::vector<std::string>& known) {
  std::fprintf(out, "%s\n\nusage: %s [--flag=value ...]\nflags:\n",
               description.c_str(), binary);
  for (const std::string& key : known) {
    std::fprintf(out, "  --%s\n", key.c_str());
  }
  std::fprintf(out, "  --help\n");
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

}  // namespace

Flags parse_bench_flags(int argc, char** argv, const std::string& description,
                        const std::vector<std::string>& known) {
  const char* binary = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, binary, description, known);
      std::exit(0);
    }
  }
  Flags flags(argc, argv);
  for (const auto& [key, value] : flags.all()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s\n\n", key.c_str());
      print_usage(stderr, binary, description, known);
      std::exit(2);
    }
  }
  return flags;
}

std::vector<std::int64_t> parse_int_list(const Flags& flags,
                                         const std::string& key,
                                         const std::string& fallback) {
  std::vector<std::int64_t> out;
  for (const std::string& item : split_list(flags.get_string(key, fallback))) {
    out.push_back(parse_int_value(key, item));
  }
  return out;
}

std::vector<double> parse_double_list(const Flags& flags,
                                      const std::string& key,
                                      const std::string& fallback) {
  std::vector<double> out;
  for (const std::string& item : split_list(flags.get_string(key, fallback))) {
    out.push_back(parse_double_value(key, item));
  }
  return out;
}

std::vector<std::string> parse_string_list(const std::string& text) {
  std::vector<std::string> out = split_list(text);
  std::erase(out, std::string());
  return out;
}

void read_shape_flags(const Flags& flags, bool open, traffic::LoadSpec& spec) {
  spec.shape = parse_choice_value("shape", flags.get_string("shape", spec.shape),
                                  {"constant", "burst", "diurnal"});
  spec.period_s = flags.get_double("period", spec.period_s);
  spec.amplitude = flags.get_double("amplitude", spec.amplitude);
  spec.duty = flags.get_double("duty", spec.duty);
  if (!open) return;
  // Negated comparisons so a NaN value is rejected too.
  if (!(spec.period_s > 0.0)) {
    reject_flag_value("period", flags.get_string("period", ""), "a number > 0");
  }
  if (!(spec.amplitude >= 0.0 && spec.amplitude <= 1.0)) {
    reject_flag_value("amplitude", flags.get_string("amplitude", ""),
                      "a number in [0, 1]");
  }
  if (!(spec.duty > 0.0 && spec.duty < 1.0)) {
    reject_flag_value("duty", flags.get_string("duty", ""),
                      "a number in (0, 1)");
  }
}

JsonWriter::JsonWriter(std::string path) : path_(std::move(path)) {
  f_ = std::fopen(path_.c_str(), "w");
  DCNT_CHECK_MSG(f_ != nullptr, "cannot open --out file");
  std::fprintf(f_, "{\n");
}

JsonWriter::~JsonWriter() {
  DCNT_CHECK_MSG(!in_array_ && !in_row_, "unterminated JSON array/object");
  std::fprintf(f_, "\n}\n");
  std::fclose(f_);
  std::printf("wrote %s\n", path_.c_str());
}

std::FILE* JsonWriter::pre_key(const std::string& key) {
  if (in_row_) {
    if (!first_in_row_) std::fprintf(f_, ", ");
    first_in_row_ = false;
  } else {
    DCNT_CHECK_MSG(!in_array_, "scalar field directly inside an array");
    if (!first_at_top_) std::fprintf(f_, ",\n");
    first_at_top_ = false;
    std::fprintf(f_, "  ");
  }
  std::fprintf(f_, "\"%s\": ", key.c_str());
  return f_;
}

void JsonWriter::field_int(const std::string& key, long long value) {
  std::fprintf(pre_key(key), "%lld", value);
}

void JsonWriter::field(const std::string& key, double value, int precision) {
  std::fprintf(pre_key(key), "%.*f", precision, value);
}

void JsonWriter::field(const std::string& key, const std::string& value) {
  std::fprintf(pre_key(key), "\"%s\"", value.c_str());
}

void JsonWriter::field(const std::string& key, const char* value) {
  field(key, std::string(value));
}

void JsonWriter::begin_array(const std::string& key) {
  DCNT_CHECK_MSG(!in_array_ && !in_row_, "nested arrays are not supported");
  if (!first_at_top_) std::fprintf(f_, ",\n");
  first_at_top_ = false;
  std::fprintf(f_, "  \"%s\": [", key.c_str());
  in_array_ = true;
  first_in_array_ = true;
}

void JsonWriter::end_array() {
  DCNT_CHECK_MSG(in_array_ && !in_row_, "end_array outside an array");
  if (!first_in_array_) std::fprintf(f_, "\n  ");
  std::fprintf(f_, "]");
  in_array_ = false;
}

void JsonWriter::begin_object() {
  DCNT_CHECK_MSG(in_array_ && !in_row_, "row objects only live in arrays");
  if (!first_in_array_) std::fprintf(f_, ",");
  first_in_array_ = false;
  std::fprintf(f_, "\n    {");
  in_row_ = true;
  first_in_row_ = true;
}

void JsonWriter::end_object() {
  DCNT_CHECK_MSG(in_row_, "end_object outside a row");
  std::fprintf(f_, "}");
  in_row_ = false;
}

}  // namespace dcnt
