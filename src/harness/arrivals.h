// Deterministic open-loop arrival process on the virtual clock.
//
// Closed-loop benches (fig4 et al.) let each terminal issue its next
// transaction the instant the previous one finishes, so the offered load
// collapses exactly when the system slows down — the regime production
// traffic never grants. An ArrivalProcess instead generates a homogeneous
// Poisson stream of arrival instants whose rate is fixed *independently*
// of service times. The stream is a pure function of the config and seed —
// it never reads the environment — so it is byte-identical across runs and
// across simulator execution backends by construction.
#ifndef LFSTX_HARNESS_ARRIVALS_H_
#define LFSTX_HARNESS_ARRIVALS_H_

#include "common/random.h"
#include "sim/clock.h"

namespace lfstx {

/// \brief Arrival-stream parameters.
struct ArrivalConfig {
  double offered_tps = 10.0;  ///< mean arrivals per simulated second
  uint64_t seed = 99;
};

/// \brief Deterministic generator of Poisson arrival instants (µs offsets
/// from the stream's start). Pure: owns its RNG and never touches a SimEnv.
class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalConfig& config);

  /// Offset of the next arrival in virtual microseconds from the stream
  /// start; non-decreasing across calls.
  SimTime Next();

  uint64_t generated() const { return generated_; }
  const ArrivalConfig& config() const { return config_; }

 private:
  ArrivalConfig config_;
  double mean_gap_us_ = 0;
  Random rng_;
  double t_us_ = 0;  ///< continuous-time cursor (µs)
  uint64_t generated_ = 0;
};

}  // namespace lfstx

#endif  // LFSTX_HARNESS_ARRIVALS_H_
