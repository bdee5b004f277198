#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace lfstx {

namespace {

// Numbers in the snapshot are virtual-clock microseconds, counts, or
// ratios; print integral values without a fraction so counters stay exact.
std::string FormatNumber(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (std::isfinite(v)) {
    snprintf(buf, sizeof(buf), "%.6g", v);
  } else {
    snprintf(buf, sizeof(buf), "0");
  }
  return buf;
}

// Pretty-printed JSON of (full name, rendered value) pairs sorted by name,
// nested by the first dot component ("disk.seeks" -> {"disk": {"seeks":
// ...}}). Sorting keeps each section's names adjacent, so a section opens
// each time the prefix changes.
std::string NestBySection(
    const std::vector<std::pair<std::string, std::string>>& leaves) {
  std::string out = "{";
  std::string section;
  bool first_section = true;
  bool first_in_section = true;
  for (const auto& [name, value] : leaves) {
    size_t dot = name.find('.');
    std::string sec = dot == std::string::npos ? "" : name.substr(0, dot);
    std::string leaf = dot == std::string::npos ? name : name.substr(dot + 1);
    if (sec != section || first_section) {
      if (!first_section) out += "\n  },";
      out += "\n  \"" + sec + "\": {";
      section = sec;
      first_section = false;
      first_in_section = true;
    }
    out += first_in_section ? "\n" : ",\n";
    first_in_section = false;
    out += "    \"" + leaf + "\": " + value;
  }
  if (!first_section) out += "\n  }";
  out += "\n}\n";
  return out;
}

}  // namespace

size_t HdrHistogram::BucketIndex(uint64_t v) {
  if (v < kSubBuckets) return static_cast<size_t>(v);
  // v in [2^e, 2^(e+1)) with e >= kSubBucketBits: the top kSubBucketBits+1
  // bits select block e's linear sub-bucket.
  int e = std::bit_width(v) - 1;
  uint64_t sub = (v >> (e - kSubBucketBits)) - kSubBuckets;
  return ((static_cast<size_t>(e) - kSubBucketBits + 1) << kSubBucketBits) +
         static_cast<size_t>(sub);
}

uint64_t HdrHistogram::BucketLow(size_t idx) {
  size_t block = idx >> kSubBucketBits;
  if (block == 0) return idx;
  uint64_t sub = idx & (kSubBuckets - 1);
  return (kSubBuckets + sub) << (block - 1);
}

uint64_t HdrHistogram::BucketWidth(size_t idx) {
  size_t block = idx >> kSubBucketBits;
  return block == 0 ? 1 : 1ull << (block - 1);
}

void HdrHistogram::Add(uint64_t v) {
  size_t idx = BucketIndex(v);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  buckets_[idx]++;
  count_++;
  sum_ += static_cast<double>(v);
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

double HdrHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  double rank = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); b++) {
    if (buckets_[b] == 0) continue;
    seen += buckets_[b];
    if (static_cast<double>(seen) >= rank) {
      uint64_t lo = std::max(BucketLow(b), min_);
      uint64_t hi = std::min(BucketLow(b) + BucketWidth(b) - 1, max_);
      if (hi < lo) hi = lo;
      double frac = 1.0 - (static_cast<double>(seen) - rank) /
                              static_cast<double>(buckets_[b]);
      if (frac < 0.0) frac = 0.0;
      return static_cast<double>(lo) + frac * static_cast<double>(hi - lo);
    }
  }
  return static_cast<double>(max_);
}

MetricCounter* MetricsRegistry::GetCounter(const std::string& name,
                                           const char* unit,
                                           const char* help) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Entry::Kind::kCounter;
    e.unit = unit;
    e.help = help;
    e.counter = std::make_unique<MetricCounter>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  return it->second.counter.get();
}

MetricHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                               const char* unit,
                                               const char* help) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Entry::Kind::kHistogram;
    e.unit = unit;
    e.help = help;
    e.histogram = std::make_unique<MetricHistogram>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  return it->second.histogram.get();
}

const MetricHistogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != Entry::Kind::kHistogram) {
    return nullptr;
  }
  return it->second.histogram.get();
}

void MetricsRegistry::AddGauge(const void* owner, const std::string& name,
                               const char* unit, const char* help,
                               std::function<double()> fn) {
  if (entries_.count(name)) return;  // first-wins
  Entry e;
  e.kind = Entry::Kind::kGauge;
  e.unit = unit;
  e.help = help;
  e.fn = std::move(fn);
  e.owner = owner;
  entries_.emplace(name, std::move(e));
}

void MetricsRegistry::DropOwner(const void* owner) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.kind == Entry::Kind::kGauge && it->second.owner == owner) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string MetricsRegistry::ToJson() const {
  std::vector<std::pair<std::string, std::string>> leaves;
  leaves.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    std::string out;
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out += FormatNumber(static_cast<double>(e.counter->value()));
        break;
      case Entry::Kind::kGauge:
        out += FormatNumber(e.fn ? e.fn() : 0.0);
        break;
      case Entry::Kind::kHistogram: {
        const MetricHistogram* h = e.histogram.get();
        out += "{\"count\": " + FormatNumber(static_cast<double>(h->count()));
        out += ", \"sum\": " + FormatNumber(h->sum());
        out += ", \"mean\": " + FormatNumber(h->mean());
        out += ", \"p50\": " + FormatNumber(h->Percentile(50));
        out += ", \"p90\": " + FormatNumber(h->Percentile(90));
        out += ", \"p95\": " + FormatNumber(h->Percentile(95));
        out += ", \"p99\": " + FormatNumber(h->Percentile(99));
        out += ", \"p999\": " + FormatNumber(h->Percentile(99.9));
        out += ", \"min\": " + FormatNumber(static_cast<double>(h->min()));
        out += ", \"max\": " + FormatNumber(static_cast<double>(h->max()));
        out += "}";
        break;
      }
    }
    leaves.emplace_back(name, std::move(out));
  }
  return NestBySection(leaves);
}

std::string MetricValuesJson(const MetricValues& values) {
  std::vector<std::pair<std::string, std::string>> leaves;
  leaves.reserve(values.size());
  for (const auto& [name, v] : values) {
    leaves.emplace_back(name, FormatNumber(v));
  }
  return NestBySection(leaves);
}

std::vector<std::pair<std::string, double>> MetricsRegistry::SampleNumeric()
    const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out.emplace_back(name, static_cast<double>(e.counter->value()));
        break;
      case Entry::Kind::kGauge:
        out.emplace_back(name, e.fn ? e.fn() : 0.0);
        break;
      case Entry::Kind::kHistogram:
        out.emplace_back(name + ".count",
                         static_cast<double>(e.histogram->count()));
        out.emplace_back(name + ".sum", e.histogram->sum());
        break;
    }
  }
  return out;
}

MetricValues MetricsRegistry::Mark() const {
  std::vector<std::pair<std::string, double>> now = SampleNumeric();
  return MetricValues(now.begin(), now.end());
}

MetricValues MetricsRegistry::Delta(const MetricValues& mark) const {
  MetricValues d = Mark();
  for (auto& [name, v] : d) {
    auto it = mark.find(name);
    if (it != mark.end()) v -= it->second;
  }
  return d;
}

std::string MetricsRegistry::PrettyPrint(
    const std::vector<std::string>& prefixes) const {
  std::string out;
  char line[256];
  for (const auto& [name, e] : entries_) {
    bool match = prefixes.empty();
    for (const std::string& p : prefixes) {
      if (name.compare(0, p.size(), p) == 0) {
        match = true;
        break;
      }
    }
    if (!match) continue;
    switch (e.kind) {
      case Entry::Kind::kCounter:
        snprintf(line, sizeof(line), "  %-32s %14s %s\n", name.c_str(),
                 FormatNumber(static_cast<double>(e.counter->value())).c_str(),
                 e.unit.c_str());
        break;
      case Entry::Kind::kGauge:
        snprintf(line, sizeof(line), "  %-32s %14s %s\n", name.c_str(),
                 FormatNumber(e.fn ? e.fn() : 0.0).c_str(), e.unit.c_str());
        break;
      case Entry::Kind::kHistogram: {
        const MetricHistogram* h = e.histogram.get();
        snprintf(line, sizeof(line),
                 "  %-32s count=%llu mean=%s p50=%s p99=%s max=%llu %s\n",
                 name.c_str(), static_cast<unsigned long long>(h->count()),
                 FormatNumber(h->mean()).c_str(),
                 FormatNumber(h->Percentile(50)).c_str(),
                 FormatNumber(h->Percentile(99)).c_str(),
                 static_cast<unsigned long long>(h->max()), e.unit.c_str());
        break;
      }
    }
    out += line;
  }
  return out;
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, e] : entries_) names.push_back(name);
  return names;
}

std::string MetricsRegistry::UnitOf(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? "" : it->second.unit;
}

}  // namespace lfstx
