// Watch the §3 lower-bound adversary work: at every step it dry-runs
// each remaining processor's inc on a snapshot of the whole system and
// commits the one with the longest communication list.
//
//   $ ./examples/adversarial_lower_bound [--counter=tree] [--n=64]
//     [--verbose]
#include <cstdio>
#include <iostream>

#include "dcnt.hpp"

int main(int argc, char** argv) {
  using namespace dcnt;
  const Flags flags(argc, argv);
  const std::string kind_name = parse_choice_value(
      "counter", flags.get_string("counter", "tree"), counter_kind_names());
  const std::int64_t n = flags.get_int("n", 64);
  const bool verbose = flags.get_bool("verbose", false);

  const CounterKind kind = counter_kind_from_string(kind_name);
  SimConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 23));
  Simulator base(make_counter(kind, n), cfg);
  std::printf("adversary vs %s on n=%zu processors\n",
              base.counter().name().c_str(), base.num_processors());

  const AdversaryResult result = run_adversarial_sequence(base);
  if (verbose) {
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
      std::printf("step %3zu: chose processor %4d (process of %lld messages)\n",
                  i, result.steps[i].chosen,
                  static_cast<long long>(result.steps[i].messages));
    }
  }
  std::printf(
      "\nadversarial sequence done.\n"
      "bottleneck processor %d carried %lld messages; paper's lower bound "
      "says some processor must carry Omega(k) = Omega(%.2f).\n"
      "the proof's witness (last processor %d) carried %lld.\n",
      result.bottleneck, static_cast<long long>(result.max_load),
      result.paper_k, result.last_processor,
      static_cast<long long>(result.last_processor_load));
  std::printf("\ntry --counter=central or --counter=quorum-grid to see other "
              "implementations pay the bound too.\n");
  return 0;
}
