// The shared bench command-line entry: every bench binary routes its
// argv through parse_bench_flags, so --help and unknown-flag behavior
// are uniform across the suite — help exits 0 after printing usage,
// a typo'd flag exits 2 instead of silently running the default
// experiment, and valid flags parse through unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace dcnt {
namespace {

/// argv builder: keeps the strings alive and hands out char* the way
/// main() receives them.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (std::string& s : strings_) {
      pointers_.push_back(s.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

const std::vector<std::string> kKnown = {"k", "seed"};

TEST(BenchFlags, ValidFlagsParseThrough) {
  Argv args({"bench_x", "--k=3", "--seed=9"});
  const Flags flags =
      parse_bench_flags(args.argc(), args.argv(), "a bench", kKnown);
  EXPECT_EQ(flags.get_int("k", 0), 3);
  EXPECT_EQ(flags.get_int("seed", 0), 9);
}

TEST(BenchFlags, NoFlagsParseThrough) {
  Argv args({"bench_x"});
  const Flags flags =
      parse_bench_flags(args.argc(), args.argv(), "a bench", kKnown);
  EXPECT_EQ(flags.get_int("k", 42), 42);
}

TEST(BenchFlagsDeath, HelpPrintsUsageAndExitsZero) {
  Argv args({"bench_x", "--help"});
  EXPECT_EXIT(parse_bench_flags(args.argc(), args.argv(), "a bench", kKnown),
              testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeath, ShortHelpAlsoExitsZero) {
  Argv args({"bench_x", "-h"});
  EXPECT_EXIT(parse_bench_flags(args.argc(), args.argv(), "a bench", kKnown),
              testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeath, HelpWinsEvenNextToOtherFlags) {
  // A user asking for help should get it even with other (possibly
  // broken) flags on the line.
  Argv args({"bench_x", "--k=3", "--help"});
  EXPECT_EXIT(parse_bench_flags(args.argc(), args.argv(), "a bench", kKnown),
              testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeath, UnknownFlagExitsTwoAndNamesIt) {
  Argv args({"bench_x", "--sede=9"});
  EXPECT_EXIT(parse_bench_flags(args.argc(), args.argv(), "a bench", kKnown),
              testing::ExitedWithCode(2), "unknown flag --sede");
}

// bench_keys's flag vocabulary: the multi-key sweep flags parse through
// (lists split, bare --quick reads as a boolean)...
TEST(BenchFlags, KeysBenchFlagsParseThrough) {
  const std::vector<std::string> known = {
      "batch", "cluster_keys", "concurrency", "counter", "key_capacity",
      "key_skews", "keys_list", "n", "nodes", "ops", "out", "quick", "seed",
      "warmup", "workers_list"};
  Argv args({"bench_keys", "--keys_list=1,1000,100000", "--key_skews=0,0.99",
             "--batch=16", "--key_capacity=64", "--quick"});
  const Flags flags =
      parse_bench_flags(args.argc(), args.argv(), "keys bench", known);
  EXPECT_EQ(parse_int_list(flags, "keys_list", ""),
            (std::vector<std::int64_t>{1, 1000, 100000}));
  EXPECT_EQ(parse_double_list(flags, "key_skews", ""),
            (std::vector<double>{0.0, 0.99}));
  EXPECT_EQ(parse_int_list(flags, "workers_list", "1,4"),
            (std::vector<std::int64_t>{1, 4}));
  EXPECT_TRUE(parse_int_list(flags, "ops_list", "").empty());
  EXPECT_EQ(flags.get_int("batch", 1), 16);
  EXPECT_EQ(flags.get_int("key_capacity", 0), 64);
  EXPECT_TRUE(flags.get_bool("quick", false));
}

// ...and a typo'd keyed flag fails loudly instead of silently running
// the default sweep.
TEST(BenchFlagsDeath, KeysBenchRejectsTypodKeyFlag) {
  const std::vector<std::string> known = {"batch", "key_skews", "keys_list"};
  Argv args({"bench_keys", "--key_skew=0.99"});
  EXPECT_EXIT(parse_bench_flags(args.argc(), args.argv(), "keys bench", known),
              testing::ExitedWithCode(2), "unknown flag --key_skew");
}

// Flag values parse whole or not at all: every numeric getter and list
// parser accepts exact numbers (signs, exponents, boundary values)...
TEST(BenchFlags, NumericValuesParseExactly) {
  const std::vector<std::string> known = {"a", "b", "c", "d", "e", "f"};
  Argv args({"bench_x", "--a=-7", "--b=9223372036854775807", "--c=1e-3",
             "--d=-2.5,0,1e6", "--e=0,-1,2", "--f=inf"});
  const Flags flags = parse_bench_flags(args.argc(), args.argv(), "b", known);
  EXPECT_EQ(flags.get_int("a", 0), -7);
  EXPECT_EQ(flags.get_int("b", 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(flags.get_double("c", 0.0), 1e-3);
  EXPECT_EQ(parse_double_list(flags, "d", ""),
            (std::vector<double>{-2.5, 0.0, 1e6}));
  EXPECT_EQ(parse_int_list(flags, "e", ""),
            (std::vector<std::int64_t>{0, -1, 2}));
  EXPECT_EQ(flags.get_double("f", 0.0), HUGE_VAL);
}

// ...and a malformed value — garbage, trailing junk, an empty item, an
// out-of-range integer, a bare flag read as a number — exits 2 naming
// the flag, like an unknown flag, instead of reading as 0 or dying on
// an uncaught exception.
Flags parse_one(const std::string& arg) {
  static const std::vector<std::string> known = {"ops", "rate", "k_list",
                                                 "drops"};
  Argv args({"bench_x", arg});
  return parse_bench_flags(args.argc(), args.argv(), "b", known);
}

TEST(BenchFlagsDeath, MalformedIntExitsTwoAndNamesFlag) {
  EXPECT_EXIT(parse_one("--ops=abc").get_int("ops", 1),
              testing::ExitedWithCode(2), "invalid value for --ops: 'abc'");
  EXPECT_EXIT(parse_one("--ops=12x").get_int("ops", 1),
              testing::ExitedWithCode(2), "--ops");
  EXPECT_EXIT(parse_one("--ops=").get_int("ops", 1),
              testing::ExitedWithCode(2), "--ops");
  EXPECT_EXIT(parse_one("--ops=1.5").get_int("ops", 1),
              testing::ExitedWithCode(2), "--ops");
  EXPECT_EXIT(parse_one("--ops=9223372036854775808").get_int("ops", 1),
              testing::ExitedWithCode(2), "--ops");
  EXPECT_EXIT(parse_one("--ops").get_int("ops", 1),
              testing::ExitedWithCode(2), "invalid value for --ops: 'true'");
}

TEST(BenchFlagsDeath, MalformedDoubleExitsTwoAndNamesFlag) {
  EXPECT_EXIT(parse_one("--rate=fast").get_double("rate", 1.0),
              testing::ExitedWithCode(2), "invalid value for --rate: 'fast'");
  EXPECT_EXIT(parse_one("--rate=0.5s").get_double("rate", 1.0),
              testing::ExitedWithCode(2), "--rate");
  EXPECT_EXIT(parse_one("--rate= 1").get_double("rate", 1.0),
              testing::ExitedWithCode(2), "--rate");
}

TEST(BenchFlagsDeath, MalformedListItemExitsTwoAndNamesFlag) {
  EXPECT_EXIT(parse_int_list(parse_one("--k_list=2,x,4"), "k_list", ""),
              testing::ExitedWithCode(2), "invalid value for --k_list: 'x'");
  EXPECT_EXIT(parse_int_list(parse_one("--k_list=2,,4"), "k_list", ""),
              testing::ExitedWithCode(2), "--k_list");
  EXPECT_EXIT(parse_double_list(parse_one("--drops=0,0.1%"), "drops", ""),
              testing::ExitedWithCode(2), "invalid value for --drops: '0.1%'");
  // A malformed fallback is a programming error reported the same way.
  EXPECT_EXIT(parse_int_list(parse_one("--ops=1"), "k_list", "2;3"),
              testing::ExitedWithCode(2), "--k_list");
}

// Choice-valued flags (--dist, --placement, --backend, --shape) accept
// exactly their vocabulary...
TEST(BenchFlags, ChoiceValuesParseThrough) {
  const std::vector<std::string> dists = {"roundrobin", "uniform", "zipf"};
  EXPECT_EQ(parse_choice_value("dist", "zipf", dists), "zipf");
  EXPECT_EQ(parse_choice_value("dist", "roundrobin", dists), "roundrobin");
}

// ...and anything else exits 2 naming the flag, instead of reaching
// the DCNT_CHECK abort inside the harness.
TEST(BenchFlagsDeath, UnknownChoiceExitsTwoAndNamesFlag) {
  const std::vector<std::string> placements = {"none", "compact", "scatter",
                                               "tree"};
  EXPECT_EXIT(parse_choice_value("placement", "bogus", placements),
              testing::ExitedWithCode(2),
              "invalid value for --placement: 'bogus'");
  EXPECT_EXIT(parse_choice_value("dist", "", {"roundrobin", "zipf"}),
              testing::ExitedWithCode(2), "--dist");
}

Flags parse_shape(const std::vector<std::string>& args) {
  static const std::vector<std::string> known = {"shape", "period",
                                                 "amplitude", "duty"};
  std::vector<std::string> argv = {"bench_x"};
  argv.insert(argv.end(), args.begin(), args.end());
  Argv a(argv);
  return parse_bench_flags(a.argc(), a.argv(), "b", known);
}

TEST(BenchFlags, ShapeFlagsReadIntoTheSpec) {
  traffic::LoadSpec spec;
  read_shape_flags(parse_shape({"--shape=burst", "--period=0.5",
                                "--amplitude=1", "--duty=0.25"}),
                   true, spec);
  EXPECT_EQ(spec.shape, "burst");
  EXPECT_EQ(spec.period_s, 0.5);
  EXPECT_EQ(spec.amplitude, 1.0);
  EXPECT_EQ(spec.duty, 0.25);
  // Absent flags keep the spec's values.
  traffic::LoadSpec defaults;
  read_shape_flags(parse_shape({}), true, defaults);
  EXPECT_EQ(defaults.shape, "constant");
  EXPECT_EQ(defaults.period_s, 1.0);
}

TEST(BenchFlags, ShapeRangesOnlyBindWhenOpenRowsRun) {
  traffic::LoadSpec spec;
  read_shape_flags(parse_shape({"--period=0", "--duty=1"}), false, spec);
  EXPECT_EQ(spec.period_s, 0.0);
  EXPECT_EQ(spec.duty, 1.0);
}

TEST(BenchFlagsDeath, BadShapeFlagsExitTwoAndNameTheFlag) {
  traffic::LoadSpec spec;
  EXPECT_EXIT(read_shape_flags(parse_shape({"--shape=bogus"}), false, spec),
              testing::ExitedWithCode(2), "invalid value for --shape: 'bogus'");
  EXPECT_EXIT(read_shape_flags(parse_shape({"--period=0"}), true, spec),
              testing::ExitedWithCode(2), "invalid value for --period: '0'");
  EXPECT_EXIT(read_shape_flags(parse_shape({"--period=nan"}), true, spec),
              testing::ExitedWithCode(2), "--period");
  EXPECT_EXIT(read_shape_flags(parse_shape({"--amplitude=1.5"}), true, spec),
              testing::ExitedWithCode(2), "--amplitude");
  EXPECT_EXIT(read_shape_flags(parse_shape({"--amplitude=-0.1"}), true, spec),
              testing::ExitedWithCode(2), "--amplitude");
  EXPECT_EXIT(read_shape_flags(parse_shape({"--duty=1"}), true, spec),
              testing::ExitedWithCode(2), "--duty");
  EXPECT_EXIT(read_shape_flags(parse_shape({"--duty=0"}), true, spec),
              testing::ExitedWithCode(2), "--duty");
}

}  // namespace
}  // namespace dcnt
