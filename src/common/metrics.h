// A process-wide registry of named metrics: monotonically increasing
// counters, lazily-sampled gauges, and latency histograms. Every subsystem
// (disk, cache, LFS, cleaner, txn managers, lock manager, log manager)
// registers its metrics here so a single `ToJson()` call snapshots the
// whole machine. Names are dotted ("disk.seeks", "cleaner.blocks_read");
// the first dot component becomes the JSON section.
//
// Ownership rules:
//   * Counters and histograms are owned by the registry and live until the
//     registry dies; `GetCounter`/`GetHistogram` are idempotent, so two
//     subsystems asking for the same name share one instance.
//   * Gauges are callbacks into the registering object. The registrant
//     passes itself as `owner` and MUST call `DropOwner(this)` from its
//     destructor so a snapshot never calls into freed memory.
//   * Duplicate names are first-wins: a second registration of the same
//     gauge name is ignored (this is deliberate — e.g. fig5 runs a LIBTP
//     stack and an embedded txn manager on one machine, and only the first
//     lock manager claims the "lock.*" names).
//
// The registry is not thread-safe; the simulator runs one simulated
// process at a time, so all mutation happens on the scheduler's critical
// path with no data races.
#ifndef LFSTX_COMMON_METRICS_H_
#define LFSTX_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lfstx {

/// \brief Monotonic counter (pointer-stable; owned by the registry).
class MetricCounter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  void Set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// \brief HDR-style log-bucketed histogram with bounded relative error.
///
/// Values below kSubBuckets get one bucket each (exact); above that, every
/// power-of-two range [2^e, 2^(e+1)) is split into kSubBuckets linear
/// sub-buckets, so a bucket's width is always <= value / kSubBuckets and
/// any reported quantile is within kMaxRelativeError of a recorded value.
/// Memory is bounded (<= ~1920 u64 buckets for the full 64-bit range) and
/// grows lazily with the largest recorded value, so a thousand-user run can
/// keep full-range latency distributions per metric without sampling.
/// count/sum/min/max are exact. Deterministic: same inputs, same state.
class HdrHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = 1ull << kSubBucketBits;  // 32
  /// Worst-case |quantile - recorded| / recorded (one bucket width).
  static constexpr double kMaxRelativeError = 1.0 / kSubBuckets;

  void Add(uint64_t v);
  uint64_t count() const { return count_; }
  /// Exact total of every added value (exact for integer inputs well below
  /// 2^53, which virtual-microsecond latencies always are).
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Percentile in [0,100]; linear interpolation within a bucket, clamped
  /// to the exact [min,max]. Non-decreasing in p.
  double Percentile(double p) const;
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }

  /// Bucket index for a value (exposed for the unit tests).
  static size_t BucketIndex(uint64_t v);
  /// Lowest value mapping to bucket `idx`.
  static uint64_t BucketLow(size_t idx);
  /// Number of distinct values mapping to bucket `idx`.
  static uint64_t BucketWidth(size_t idx);

 private:
  std::vector<uint64_t> buckets_;  // grown on demand to the largest index
  uint64_t count_ = 0;
  double sum_ = 0.0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

/// \brief Latency/size histogram (pointer-stable; owned by the registry).
/// Thin wrapper over the log-bucketed HdrHistogram, so every registered
/// histogram — profiler phases, blame edges, open-loop latencies — resolves
/// p99.9 with bounded relative error at any load.
class MetricHistogram {
 public:
  void Add(uint64_t v) { h_.Add(v); }
  uint64_t count() const { return h_.count(); }
  double sum() const { return h_.sum(); }
  double mean() const { return h_.mean(); }
  double Percentile(double p) const { return h_.Percentile(p); }
  uint64_t min() const { return h_.min(); }
  uint64_t max() const { return h_.max(); }
  const HdrHistogram& hdr() const { return h_; }

 private:
  HdrHistogram h_;
};

/// Numeric metric values by name, as SampleNumeric flattens them.
using MetricValues = std::map<std::string, double>;

/// `values` as JSON in MetricsRegistry::ToJson's layout, nested by the
/// first dot component of each name. A histogram appears as its `.count`
/// and `.sum` leaves, as SampleNumeric flattens it.
std::string MetricValuesJson(const MetricValues& values);

/// \brief Registry of named metrics, snapshotable to JSON.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first
  /// use. `unit` and `help` are recorded from the first caller.
  MetricCounter* GetCounter(const std::string& name, const char* unit,
                            const char* help);

  /// Returns the histogram registered under `name`, creating it on first
  /// use.
  MetricHistogram* GetHistogram(const std::string& name, const char* unit,
                                const char* help);

  /// Read-only lookup that never creates: the histogram under `name`, or
  /// null if absent or not a histogram. Lets reporting code (e.g. the
  /// bench --blame tables) read instance-specific metrics without
  /// materializing them on rigs that would never populate them.
  const MetricHistogram* FindHistogram(const std::string& name) const;

  /// Registers a lazily-sampled gauge. `fn` is called at snapshot time.
  /// First-wins: if `name` is taken the call is a no-op. The registrant
  /// must `DropOwner(owner)` before `fn`'s captures dangle.
  void AddGauge(const void* owner, const std::string& name, const char* unit,
                const char* help, std::function<double()> fn);

  /// Removes every gauge registered with this owner token. Call from the
  /// registrant's destructor.
  void DropOwner(const void* owner);

  /// Snapshot of every metric as pretty-printed JSON, nested by the first
  /// dot component of the name ("disk.seeks" -> {"disk": {"seeks": ...}}).
  /// Histograms serialize as {count, sum, mean, p50, p90, p95, p99, p999,
  /// min, max}.
  std::string ToJson() const;

  /// Flat numeric view for the virtual-time sampler: counters and gauges
  /// contribute their value under their own name; histograms contribute
  /// `<name>.count` and `<name>.sum` (the two fields whose deltas are
  /// meaningful over a sampling window). Sorted by name.
  std::vector<std::pair<std::string, double>> SampleNumeric() const;

  /// Every numeric metric now, to open a measured window.
  MetricValues Mark() const;

  /// `now - mark` for every numeric metric: the window since `mark`. A
  /// metric registered after the mark counts from zero. Level gauges
  /// (queue depth, utilization) difference as levels.
  MetricValues Delta(const MetricValues& mark) const;

  /// Human-readable table of every metric whose name starts with one of
  /// `prefixes` (all metrics when empty): counters/gauges one per line,
  /// histograms as count/mean/p50/p99/max. Used by bench binaries to
  /// surface a section (e.g. "cleaner.", "wa.") without JSON plumbing.
  std::string PrettyPrint(const std::vector<std::string>& prefixes) const;

  /// All registered names, sorted (for docs/tests).
  std::vector<std::string> Names() const;

  /// Unit string recorded for `name`, or "" if unknown.
  std::string UnitOf(const std::string& name) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram };
    Kind kind;
    std::string unit;
    std::string help;
    std::unique_ptr<MetricCounter> counter;        // kCounter
    std::unique_ptr<MetricHistogram> histogram;    // kHistogram
    std::function<double()> fn;                    // kGauge
    const void* owner = nullptr;                   // kGauge
  };

  std::map<std::string, Entry> entries_;  // sorted -> stable JSON
};

}  // namespace lfstx

#endif  // LFSTX_COMMON_METRICS_H_
