// Trace format contract tests: every emitted event must parse as a flat
// JSON object, timestamps must be monotone per machine, wait_edge blame
// must point at transactions whose spans overlap the wait interval, and
// identical seeded runs must produce byte-identical traces. The offline
// report tool (tools/report.py, over tools/tracelib.py) parses these
// files with a strict JSON reader, so format drift here breaks it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "machines.h"
#include "tpcb/driver.h"

namespace lfstx {
namespace {

std::vector<std::string> Lines(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) nl = s.size();
    if (nl > pos) out.push_back(s.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

// ---- minimal strict JSON checker (flat objects only) ----------------------
// The tracer only ever emits one-level objects of strings, numbers, and
// booleans; this parser accepts exactly that and nothing more.

bool SkipString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size() && s[*i] != '"') {
    if (s[*i] == '\\') {
      ++*i;
      if (*i >= s.size()) return false;
    }
    ++*i;
  }
  if (*i >= s.size()) return false;
  ++*i;  // closing quote
  return true;
}

bool SkipNumber(const std::string& s, size_t* i) {
  size_t start = *i;
  if (*i < s.size() && s[*i] == '-') ++*i;
  while (*i < s.size() && (isdigit(s[*i]) || s[*i] == '.' || s[*i] == 'e' ||
                           s[*i] == 'E' || s[*i] == '+' || s[*i] == '-')) {
    ++*i;
  }
  return *i > start;
}

bool SkipValue(const std::string& s, size_t* i) {
  if (*i >= s.size()) return false;
  if (s[*i] == '"') return SkipString(s, i);
  if (s.compare(*i, 4, "true") == 0) return *i += 4, true;
  if (s.compare(*i, 5, "false") == 0) return *i += 5, true;
  return SkipNumber(s, i);
}

bool IsFlatJsonObject(const std::string& line) {
  size_t i = 0;
  if (line.empty() || line[i++] != '{') return false;
  bool first = true;
  while (i < line.size() && line[i] != '}') {
    if (!first && line[i++] != ',') return false;
    first = false;
    if (!SkipString(line, &i)) return false;
    if (i >= line.size() || line[i++] != ':') return false;
    if (!SkipValue(line, &i)) return false;
  }
  return i < line.size() && line[i] == '}' && i + 1 == line.size();
}

// Extracts an integer JSON field from one trace line; -1 if absent.
int64_t Field(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  return strtoll(line.c_str() + pos + needle.size(), nullptr, 10);
}

// Extracts a string JSON field; "" if absent.
std::string StrField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = line.find('"', pos);
  return line.substr(pos, end - pos);
}

// Everything DumpFlight prints.
std::string FlightDump(const Tracer& tr) {
  FILE* tmp = tmpfile();
  if (tmp == nullptr) return "";
  tr.DumpFlight(tmp);
  fflush(tmp);
  std::string dump(static_cast<size_t>(ftell(tmp)), '\0');
  rewind(tmp);
  size_t got = fread(dump.data(), 1, dump.size(), tmp);
  fclose(tmp);
  dump.resize(got);
  return dump;
}

// The dump's event lines, without the "[flight]" header line.
std::string FlightLines(const Tracer& tr) {
  std::string dump = FlightDump(tr);
  size_t nl = dump.find('\n');
  return nl == std::string::npos ? "" : dump.substr(nl + 1);
}

// Contended multi-terminal TPC-B on one architecture with every trace
// category captured: lots of lock blame, commit piggybacking, and disk
// queueing in a few hundred virtual milliseconds.
std::string RunContendedWorkload(Arch arch) {
  std::string captured;
  auto rig = TestRig::Create(arch);
  rig->Run([&] {
    TpcbConfig cfg;
    cfg.accounts = 500;
    cfg.tellers = 10;
    cfg.branches = 2;
    auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), cfg,
                       100);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    rig->env()->tracer()->Enable(kTraceAll);
    rig->env()->tracer()->SetCapture(&captured);
    const uint32_t kMpl = 4;
    uint32_t finished = 0;
    std::vector<std::unique_ptr<TpcbDriver>> drivers;
    for (uint32_t p = 0; p < kMpl; p++) {
      drivers.push_back(std::make_unique<TpcbDriver>(
          rig->backend.get(), &db.value(), cfg, 7 + p));
    }
    for (uint32_t p = 0; p < kMpl; p++) {
      rig->env()->Spawn("terminal" + std::to_string(p), [&, p] {
        auto r = drivers[p]->Run(25);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        finished++;
      });
    }
    while (finished < kMpl) rig->env()->SleepFor(10 * kMillisecond);
    rig->env()->tracer()->SetCapture(nullptr);
    rig->env()->tracer()->DisableAll();
  });
  return captured;
}

TEST(TraceFormatTest, MalformedEnvNumbersKeepTheirDefaults) {
  // strtoll/strtoull would read "abc" as 0 (no flight recorder) and "1e3"
  // as 1 (a 1 ms sampler).
  setenv("LFSTX_FLIGHT", "abc", 1);
  setenv("LFSTX_SAMPLE_MS", "1e3", 1);
  testing::internal::CaptureStderr();
  auto rig = TestRig::Create(Arch::kUserLfs);
  std::string err = testing::internal::GetCapturedStderr();
  unsetenv("LFSTX_FLIGHT");
  unsetenv("LFSTX_SAMPLE_MS");
  EXPECT_TRUE(rig->env()->tracer()->flight_enabled());
  EXPECT_EQ(rig->machine->sampler, nullptr);
  EXPECT_NE(err.find("lfstx: ignoring LFSTX_FLIGHT=abc"), std::string::npos)
      << err;
  EXPECT_NE(err.find("lfstx: ignoring LFSTX_SAMPLE_MS=1e3"),
            std::string::npos)
      << err;
  rig->Run([] {});
}

TEST(TraceFormatTest, EveryEventIsAFlatJsonObject) {
  std::string trace = RunContendedWorkload(Arch::kEmbedded);
  std::vector<std::string> lines = Lines(trace);
  ASSERT_GT(lines.size(), 100u);
  for (const std::string& line : lines) {
    ASSERT_TRUE(IsFlatJsonObject(line)) << "unparseable: " << line;
    EXPECT_GE(Field(line, "t"), 0) << line;
    EXPECT_NE(StrField(line, "cat"), "") << line;
    EXPECT_NE(StrField(line, "ev"), "") << line;
  }
}

TEST(TraceFormatTest, TimestampsMonotonePerMachine) {
  // A capture is a single machine's stream (no "m" field), and the
  // simulation is single-threaded, so timestamps may never go backwards.
  std::string trace = RunContendedWorkload(Arch::kUserLfs);
  int64_t last = 0;
  for (const std::string& line : Lines(trace)) {
    int64_t t = Field(line, "t");
    ASSERT_GE(t, last) << "time went backwards: " << line;
    last = t;
  }
}

TEST(TraceFormatTest, WaitEdgeBlamesLiveSpans) {
  for (Arch arch : {Arch::kEmbedded, Arch::kUserLfs}) {
    std::string trace = RunContendedWorkload(arch);
    // txn -> [begin, end] of its profile span.
    std::map<int64_t, std::pair<int64_t, int64_t>> spans;
    for (const std::string& line : Lines(trace)) {
      if (StrField(line, "ev") != "txn_profile") continue;
      int64_t end = Field(line, "t");
      spans[Field(line, "txn")] = {end - Field(line, "elapsed_us"), end};
    }
    ASSERT_EQ(spans.size(), 100u);  // 4 terminals x 25 txns
    size_t checked = 0;
    for (const std::string& line : Lines(trace)) {
      if (StrField(line, "ev") != "wait_edge") continue;
      int64_t holder = Field(line, "holder");
      if (holder <= 0) continue;  // disk edges blame ahead_txn, not holder
      int64_t since = Field(line, "since");
      int64_t until = since + Field(line, "waited_us");
      ASSERT_TRUE(spans.count(holder))
          << "edge blames a transaction with no span: " << line;
      // The blamed transaction must have been alive during the wait: a
      // lock holder held the lock at `since`; a group-commit/log leader
      // flushed somewhere inside the window.
      EXPECT_LE(spans[holder].first, until) << line;
      EXPECT_GE(spans[holder].second, since) << line;
      // The waiter, when it is a transaction, must have an enclosing span.
      int64_t waiter = Field(line, "waiter");
      if (waiter > 0) {
        ASSERT_TRUE(spans.count(waiter)) << line;
        EXPECT_LE(spans[waiter].first, since) << line;
        EXPECT_GE(spans[waiter].second, since) << line;
      }
      checked++;
    }
    EXPECT_GT(checked, 10u) << "contended run produced no blame edges";
  }
}

TEST(TraceFormatTest, IdenticalRunsProduceByteIdenticalTraces) {
  std::string a = RunContendedWorkload(Arch::kEmbedded);
  std::string b = RunContendedWorkload(Arch::kEmbedded);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceFormatTest, FlightRecorderBuffersWithoutEmitting) {
  auto rig = TestRig::Create(Arch::kEmbedded);
  rig->Run([&] {
    Tracer* tr = rig->env()->tracer();
    // Machine::Build turns the recorder on by default when no trace spec
    // is active; the user-visible mask stays off.
    ASSERT_TRUE(tr->flight_enabled());
    ASSERT_EQ(tr->mask(), 0u);
    uint64_t emitted0 = tr->events_emitted();
    Kernel* k = rig->machine->kernel.get();
    InodeNum ino = k->Create("/f").value();
    ASSERT_TRUE(k->SetTxnProtected("/f", true).ok());
    ASSERT_TRUE(k->TxnBegin().ok());
    ASSERT_TRUE(k->Write(ino, 0, Slice("x")).ok());
    ASSERT_TRUE(k->TxnCommit().ok());
    // Buffered-only events do not count as emitted and reach no sink.
    EXPECT_EQ(tr->events_emitted(), emitted0);
    std::string dump = FlightDump(*tr);
    EXPECT_NE(dump.find("[flight]"), std::string::npos);
    EXPECT_NE(dump.find("\"ev\":\"txn_commit\""), std::string::npos);
    for (const std::string& line : Lines(dump)) {
      if (!line.empty() && line[0] == '{') {
        EXPECT_TRUE(IsFlatJsonObject(line)) << line;
      }
    }
  });
}

// Every field kind at its edges, against the exact bytes the tracer's
// original snprintf formatting ("%llu", "%lld", "%.6g", "\\u%04x")
// printed for the same event.
TEST(TraceFormatTest, FieldFormattingIsPinned) {
  SimTime clock = 41780;
  Tracer tr(&clock);
  std::string cap;
  tr.SetCapture(&cap);
  tr.Enable(kTraceAll);
  const char tricky[] = {'q', '"', 'b', '\\', 'c', '\x01', 'd', '\x1f', 0};
  LFSTX_TRACE(&tr, TraceCat::kDisk, "io_end",
              {"u", std::numeric_limits<uint64_t>::max()},
              {"i", std::numeric_limits<int64_t>::min()},
              {"u32", uint32_t{7}}, {"neg", -3}, {"yes", true},
              {"a", 0.1}, {"b", 1e-7}, {"c", 123456789.0}, {"d", -2.5},
              {"e", 1e21}, {"z", 0.0}, {"nan", std::nan("")},
              {"inf", std::numeric_limits<double>::infinity()},
              {"s", tricky}, {"null", static_cast<const char*>(nullptr)});
  EXPECT_EQ(cap,
            "{\"t\":41780,\"cat\":\"disk\",\"ev\":\"io_end\","
            "\"u\":18446744073709551615,\"i\":-9223372036854775808,"
            "\"u32\":7,\"neg\":-3,\"yes\":1,"
            "\"a\":0.1,\"b\":1e-07,\"c\":1.23457e+08,\"d\":-2.5,"
            "\"e\":1e+21,\"z\":0,\"nan\":0,\"inf\":0,"
            "\"s\":\"q\\\"b\\\\c\\u0001d\\u001f\",\"null\":\"\"}\n");
  EXPECT_TRUE(IsFlatJsonObject(cap.substr(0, cap.size() - 1))) << cap;
}

// The flight recorder formats each event into a reused slot; what it
// dumps must be byte-for-byte what a capture sink received.
TEST(TraceFormatTest, FlightDumpMatchesCaptureBytes) {
  SimTime clock = 0;
  Tracer tr(&clock);
  std::string cap;
  tr.SetCapture(&cap);
  tr.Enable(kTraceAll);
  tr.EnableFlightRecorder(64);
  for (uint64_t i = 0; i < 40; i++) {
    clock += 7;
    LFSTX_TRACE(&tr, TraceCat::kDisk, "io_end", {"block", i * 8},
                {"blocks", uint64_t{8}}, {"service_us", 1234.5 + i});
    if (i % 3 == 0) {
      LFSTX_TRACE(&tr, TraceCat::kLock, "lock_wait", {"txn", i},
                  {"mode", i % 2 == 0 ? "shared" : "exclusive"});
    }
  }
  EXPECT_EQ(tr.events_emitted(), 54u);
  EXPECT_EQ(FlightLines(tr), cap);
}

// A category's ring keeps its last 64 events; merging the rings still
// yields one timeline in emission order.
TEST(TraceFormatTest, FlightRingKeepsLastEventsInEmissionOrder) {
  SimTime clock = 0;
  Tracer flight(&clock);
  flight.EnableFlightRecorder(64);
  Tracer all(&clock);  // the same events, every one kept
  std::string cap;
  all.SetCapture(&cap);
  all.Enable(kTraceAll);
  for (uint64_t i = 0; i < 150; i++) {
    clock++;
    for (Tracer* tr : {&flight, &all}) {
      LFSTX_TRACE(tr, TraceCat::kDisk, "io_end", {"i", i});
      if (i % 10 == 0) LFSTX_TRACE(tr, TraceCat::kCleaner, "pass", {"i", i});
    }
  }
  EXPECT_EQ(flight.events_emitted(), 0u);
  // Expected: disk events 86..149 (the last 64) and all 15 cleaner events.
  std::string want;
  size_t kept = 0;
  for (const std::string& line : Lines(cap)) {
    if (StrField(line, "cat") == "disk" && Field(line, "i") < 86) continue;
    want += line + "\n";
    kept++;
  }
  EXPECT_EQ(kept, 64u + 15u);
  std::string dump = FlightDump(flight);
  EXPECT_EQ(dump.substr(0, dump.find('\n')),
            "[flight] last 79 events (<= 64 per category):");
  EXPECT_EQ(FlightLines(flight), want);
}

}  // namespace
}  // namespace lfstx
