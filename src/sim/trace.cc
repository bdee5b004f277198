#include "sim/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

namespace lfstx {

namespace {

// Process-wide registry of trace-file sinks. A bench sweep builds one
// machine per configuration; with a plain fopen("w") per machine the last
// one would clobber every earlier trace. Instead the first opener of a
// path truncates it and every later opener appends through the same
// handle, tagged with its attachment order. Handles live for the process
// lifetime (flushed whenever a tracer detaches) so that sequentially
// constructed machines keep appending rather than re-truncating.
struct SharedSink {
  FILE* file = nullptr;
  uint32_t attaches = 0;  // machine tags handed out so far
};

std::mutex& SinkMutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, SharedSink>& SinkRegistry() {
  static std::map<std::string, SharedSink> reg;
  return reg;
}

struct CatName {
  TraceCat cat;
  const char* name;
};

constexpr CatName kCatNames[] = {
    {TraceCat::kDisk, "disk"},           {TraceCat::kCache, "cache"},
    {TraceCat::kLfs, "lfs"},             {TraceCat::kCleaner, "cleaner"},
    {TraceCat::kCheckpoint, "checkpoint"}, {TraceCat::kRecovery, "recovery"},
    {TraceCat::kTxn, "txn"},             {TraceCat::kLock, "lock"},
    {TraceCat::kLog, "log"},             {TraceCat::kSync, "sync"},
    {TraceCat::kCheck, "check"},         {TraceCat::kProf, "prof"},
    {TraceCat::kBlame, "blame"},         {TraceCat::kMetrics, "metrics"},
    {TraceCat::kOpenLoop, "openloop"},
    {TraceCat::kLogEcon, "logecon"},
};

/// Index of a category's bit (for the flight rings).
int CatIndex(TraceCat c) {
  uint32_t bits = static_cast<uint32_t>(c);
  int i = 0;
  while (bits > 1) {
    bits >>= 1;
    i++;
  }
  return i;
}

void AppendEscaped(std::string* out, const char* s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (; *s; s++) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out->append(esc, sizeof(esc));
    } else {
      out->push_back(c);
    }
  }
}

// Number formatting with std::to_chars: no locale, no format-string
// parsing, and byte-for-byte what the printf conversions named below print.
template <typename T>
void AppendInt(std::string* out, T v) {  // %llu / %lld
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendDouble(std::string* out, double v) {  // %.6g; non-finite -> 0
  if (!std::isfinite(v)) {
    out->push_back('0');
    return;
  }
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 6)
                       .ptr);
}

}  // namespace

Tracer::~Tracer() { ReleaseSink(); }

void Tracer::ReleaseSink() {
  if (file_ == nullptr) return;
  std::lock_guard<std::mutex> lock(SinkMutex());
  // The handle stays open (and stays in the registry) so the next machine
  // in this process appends; just make this tracer's events durable.
  fflush(file_);
  file_ = nullptr;
  path_.clear();
  machine_ = 0;
}

const char* Tracer::CategoryName(TraceCat c) {
  for (const auto& e : kCatNames) {
    if (e.cat == c) return e.name;
  }
  return "?";
}

Status Tracer::EnableSpec(const std::string& spec) {
  uint32_t mask = 0;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    if (tok == "all") {
      mask = kTraceAll;
      continue;
    }
    bool found = false;
    for (const auto& e : kCatNames) {
      if (tok == e.name) {
        mask |= static_cast<uint32_t>(e.cat);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown trace category: " + tok);
    }
  }
  mask_ = mask;
  return Status::OK();
}

Status Tracer::OpenFile(const std::string& path) {
  ReleaseSink();
  std::lock_guard<std::mutex> lock(SinkMutex());
  SharedSink& sink = SinkRegistry()[path];
  if (sink.file == nullptr) {
    sink.file = fopen(path.c_str(), "w");
    if (sink.file == nullptr) {
      SinkRegistry().erase(path);
      return Status::IOError("cannot open trace file " + path);
    }
  }
  file_ = sink.file;
  path_ = path;
  machine_ = ++sink.attaches;
  return Status::OK();
}

void Tracer::EnableFlightRecorder(size_t per_cat) {
  flight_per_cat_ = per_cat;
  flight_mask_ = per_cat > 0 ? kTraceAll : 0;
  flight_.clear();
  if (per_cat > 0) {
    flight_.resize(sizeof(kCatNames) / sizeof(kCatNames[0]));
    for (FlightRing& ring : flight_) ring.slots.resize(per_cat);
  }
}

void Tracer::DumpFlight(FILE* out) const {
  if (flight_mask_ == 0) return;
  // Merge the per-category rings back into emission order.
  std::vector<const FlightSlot*> all;
  for (const FlightRing& ring : flight_) {
    for (const FlightSlot& slot : ring.slots) {
      if (!slot.line.empty()) all.push_back(&slot);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const auto* a, const auto* b) { return a->seq < b->seq; });
  fprintf(out, "[flight] last %zu events (<= %zu per category):\n",
          all.size(), flight_per_cat_);
  for (const FlightSlot* slot : all) {
    fwrite(slot->line.data(), 1, slot->line.size(), out);
  }
}

void Tracer::Emit(TraceCat c, const char* event,
                  std::initializer_list<TraceField> fields) {
  // Format straight into the category's oldest flight slot, or into the
  // reused line when the recorder skips this category.
  std::string* target = &line_;
  if ((flight_mask_ & static_cast<uint32_t>(c)) != 0) {
    FlightRing& ring = flight_[CatIndex(c)];
    FlightSlot& slot = ring.slots[ring.next];
    ring.next = (ring.next + 1) % ring.slots.size();
    slot.seq = flight_seq_++;
    target = &slot.line;
  }
  std::string& line = *target;
  line.clear();
  line += "{\"t\":";
  AppendInt(&line, clock_ ? *clock_ : SimTime{0});
  // Machine tag only applies to the shared file sink; capture sinks are
  // single-machine by construction and must stay byte-stable across runs.
  if (machine_ != 0 && capture_ == nullptr) {
    line += ",\"m\":";
    AppendInt(&line, machine_);
  }
  line += ",\"cat\":\"";
  line += CategoryName(c);
  line += "\",\"ev\":\"";
  AppendEscaped(&line, event);
  line += "\"";
  for (const TraceField& f : fields) {
    line += ",\"";
    AppendEscaped(&line, f.key);
    line += "\":";
    switch (f.kind) {
      case TraceField::Kind::kU64:
        AppendInt(&line, f.u);
        break;
      case TraceField::Kind::kI64:
        AppendInt(&line, f.i);
        break;
      case TraceField::Kind::kF64:
        AppendDouble(&line, f.f);
        break;
      case TraceField::Kind::kStr:
        line += "\"";
        AppendEscaped(&line, f.s != nullptr ? f.s : "");
        line += "\"";
        break;
    }
  }
  line += "}\n";
  // User sinks (and the emitted counter) see only user-enabled categories;
  // flight-only events must not perturb a capture test's byte-exact output.
  if ((mask_ & static_cast<uint32_t>(c)) == 0) return;
  emitted_++;
  if (capture_ != nullptr) {
    *capture_ += line;
  } else {
    fwrite(line.data(), 1, line.size(), file_ != nullptr ? file_ : stderr);
  }
}

}  // namespace lfstx
