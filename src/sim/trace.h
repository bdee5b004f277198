// Structured event tracing on the virtual clock. Subsystems emit
// category-tagged events ("disk io_end at t=41780us, block 512, 8 blocks")
// as JSON Lines; each line carries the simulated timestamp, so a trace is
// a deterministic timeline of everything the simulated machine did.
//
// Cost model: tracing must be free when off. The `LFSTX_TRACE` macro
// checks an inline bitmask before building any field, so a disabled
// category costs one load + test + branch; defining
// `LFSTX_DISABLE_TRACING` at compile time removes even that.
//
// Enabling: Machine::Build reads `Options::trace_categories` /
// `Options::trace_path`, which default to the `LFSTX_TRACE` and
// `LFSTX_TRACE_FILE` environment variables, so any test or bench binary
// can be traced without a rebuild:
//
//   LFSTX_TRACE=disk,txn LFSTX_TRACE_FILE=/tmp/fig4.jsonl ./bench/fig4_tps
#ifndef LFSTX_SIM_TRACE_H_
#define LFSTX_SIM_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/clock.h"

namespace lfstx {

/// Event categories; one bit each so they compose into an enable mask.
enum class TraceCat : uint32_t {
  kDisk = 1u << 0,        ///< disk request begin/end
  kCache = 1u << 1,       ///< buffer cache evictions
  kLfs = 1u << 2,         ///< partial-segment writes, segment switches
  kCleaner = 1u << 3,     ///< cleaner passes, coalescing
  kCheckpoint = 1u << 4,  ///< checkpoint writes
  kRecovery = 1u << 5,    ///< mount-time roll-forward phases
  kTxn = 1u << 6,         ///< txn begin/commit/abort (both architectures)
  kLock = 1u << 7,        ///< lock waits and deadlocks
  kLog = 1u << 8,         ///< LIBTP log flushes / truncation
  kSync = 1u << 9,        ///< sync-daemon rounds
  kCheck = 1u << 10,      ///< invariant-checker runs and failures
  kProf = 1u << 11,       ///< profiler per-transaction phase breakdowns
  kBlame = 1u << 12,      ///< wait_edge causal blame events (who held me up)
  kMetrics = 1u << 13,    ///< metric_sample virtual-time sampler deltas
  kOpenLoop = 1u << 14,   ///< open-loop arrival driver: sheds, request ends
  kLogEcon = 1u << 15,    ///< byte provenance + segment lifecycle economics
};

constexpr uint32_t kTraceAll = (1u << 16) - 1;

/// One key/value in a trace event. Implicit constructors let call sites
/// write `{"block", addr}, {"op", "read"}`.
struct TraceField {
  enum class Kind : uint8_t { kU64, kI64, kF64, kStr };
  const char* key;
  Kind kind;
  uint64_t u = 0;
  int64_t i = 0;
  double f = 0;
  const char* s = nullptr;

  TraceField(const char* k, uint64_t v) : key(k), kind(Kind::kU64), u(v) {}
  TraceField(const char* k, uint32_t v)
      : key(k), kind(Kind::kU64), u(v) {}
  TraceField(const char* k, int64_t v) : key(k), kind(Kind::kI64), i(v) {}
  TraceField(const char* k, int v) : key(k), kind(Kind::kI64), i(v) {}
  TraceField(const char* k, double v) : key(k), kind(Kind::kF64), f(v) {}
  TraceField(const char* k, bool v)
      : key(k), kind(Kind::kU64), u(v ? 1 : 0) {}
  TraceField(const char* k, const char* v)
      : key(k), kind(Kind::kStr), s(v) {}
};

/// \brief JSONL event sink bound to the simulation clock.
class Tracer {
 public:
  /// `clock` points at the SimEnv's current-time word; the tracer reads it
  /// at emit time, so events are stamped with virtual microseconds.
  explicit Tracer(const SimTime* clock) : clock_(clock) {}
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Hot-path gate: is this category being recorded (by a user sink or by
  /// the flight recorder)?
  bool enabled(TraceCat c) const {
    return ((mask_ | flight_mask_) & static_cast<uint32_t>(c)) != 0;
  }
  uint32_t mask() const { return mask_; }

  void Enable(uint32_t mask) { mask_ |= mask; }
  void Enable(TraceCat c) { mask_ |= static_cast<uint32_t>(c); }
  void Disable(TraceCat c) { mask_ &= ~static_cast<uint32_t>(c); }
  void DisableAll() { mask_ = 0; }

  /// Parses a comma-separated category spec: "disk,txn,lock", "all", or ""
  /// (disables everything). Unknown names are an error.
  Status EnableSpec(const std::string& spec);

  /// Routes events to `path`. Trace files are shared process-wide: the
  /// first tracer to open `path` truncates it; later tracers (e.g. the
  /// next configuration's machine in a bench sweep) append to the same
  /// handle instead of clobbering it. Each attachment gets a distinct
  /// machine tag, emitted as an `"m"` field on every event, so a merged
  /// trace still separates by machine.
  Status OpenFile(const std::string& path);

  /// 1-based attachment order on the shared trace file (0 = no file sink;
  /// such events carry no `"m"` field).
  uint32_t machine_tag() const { return machine_; }

  /// Routes events into a string (for tests). Overrides any file.
  /// Pass nullptr to revert to the file / stderr sink.
  void SetCapture(std::string* sink) { capture_ = sink; }

  /// Flight-recorder mode: buffer the last `per_cat` events of every
  /// category in memory, independently of any user sink or mask, so a
  /// failed LFSTX_CHECK can dump the immediate history of an otherwise
  /// untraced run (see SimEnv's check dumper). Each category owns
  /// `per_cat` line slots, reused round-robin: an event is formatted
  /// straight into the slot it overwrites, so once every slot has held a
  /// line as long as the new one, recording allocates nothing. Events that
  /// the user mask also matches still go to the normal sink and still
  /// count in events_emitted(); buffered-only events do neither. Pass 0 to
  /// turn the recorder off and free the buffers.
  void EnableFlightRecorder(size_t per_cat);
  bool flight_enabled() const { return flight_mask_ != 0; }
  /// Prints the buffered events to `out`, oldest first, across all
  /// categories in original emission order.
  void DumpFlight(FILE* out) const;

  /// Appends one JSONL event. Call through LFSTX_TRACE so disabled
  /// categories never reach here.
  void Emit(TraceCat c, const char* event,
            std::initializer_list<TraceField> fields);

  uint64_t events_emitted() const { return emitted_; }

  static const char* CategoryName(TraceCat c);

 private:
  /// One category's ring: `slots[next]` is overwritten by the next event.
  /// A slot's seq is its event's emission number; an empty line marks a
  /// slot not yet used.
  struct FlightSlot {
    uint64_t seq = 0;
    std::string line;
  };
  struct FlightRing {
    std::vector<FlightSlot> slots;
    size_t next = 0;
  };

  void ReleaseSink();

  const SimTime* clock_;
  uint32_t mask_ = 0;
  uint32_t flight_mask_ = 0;  // kTraceAll when the flight recorder is on
  FILE* file_ = nullptr;  // shared via the process-wide sink registry
  std::string path_;      // registry key; empty -> stderr sink
  uint32_t machine_ = 0;  // attachment order on the shared file, 1-based
  std::string* capture_ = nullptr;
  uint64_t emitted_ = 0;
  std::string line_;  // reused line for events the flight recorder skips
  // Flight rings: one per category bit, each holding the last
  // `flight_per_cat_` events; seq merges them back into emission order at
  // dump time.
  size_t flight_per_cat_ = 0;
  uint64_t flight_seq_ = 0;
  std::vector<FlightRing> flight_;
};

#ifdef LFSTX_DISABLE_TRACING
#define LFSTX_TRACE(tracer, cat, event, ...) \
  do {                                       \
  } while (0)
#else
/// Emit a trace event iff `cat` is enabled; fields are not evaluated
/// otherwise. `tracer` may be null (e.g. a subsystem built without an env).
#define LFSTX_TRACE(tracer, cat, event, ...)                        \
  do {                                                              \
    ::lfstx::Tracer* lfstx_trace_t_ = (tracer);                     \
    if (lfstx_trace_t_ != nullptr && lfstx_trace_t_->enabled(cat)) { \
      lfstx_trace_t_->Emit((cat), (event), {__VA_ARGS__});          \
    }                                                               \
  } while (0)
#endif

}  // namespace lfstx

#endif  // LFSTX_SIM_TRACE_H_
