#include "harness/arrivals.h"

#include "common/check_macros.h"

namespace lfstx {

ArrivalProcess::ArrivalProcess(const ArrivalConfig& config)
    : config_(config),
      mean_gap_us_(1.0 / (config.offered_tps / 1e6)),
      rng_(config.seed) {
  LFSTX_CHECK(config_.offered_tps > 0, "arrival rate must be positive");
}

SimTime ArrivalProcess::Next() {
  t_us_ += rng_.Exponential(mean_gap_us_);
  // Two draws per arrival, the second unused: the committed tail baseline
  // (BENCH_tail.json) was generated from a thinned stream that drew a
  // uniform per arrival for its acceptance test, and dropping that draw
  // would move every arrival after the first.
  (void)rng_.NextDouble();
  generated_++;
  return static_cast<SimTime>(t_us_);
}

}  // namespace lfstx
