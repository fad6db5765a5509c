// Measurement primitives of the perfbench program: clocks, the percentile
// rule, span buffers and their self-time arithmetic, and the metric sink
// that becomes the program's JSON result line.
//
// Everything here is header-only and free of the semlock runtime, so the
// self-test (selftest.cpp) exercises it on synthetic inputs.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

// --- clocks -------------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Span clock: the time-stamp counter where there is one (a few ns per read,
// against ~20 ns for steady_clock), else steady_clock. Ticks convert to ns
// through a ratio calibrated against steady_clock.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

// ns per tick, measured over `window_ms` of wall time.
inline double calibrate_ns_per_tick(int window_ms = 20) {
  const std::uint64_t n0 = now_ns();
  const std::uint64_t t0 = ticks();
  while (now_ns() - n0 < static_cast<std::uint64_t>(window_ms) * 1000000) {
  }
  const std::uint64_t n1 = now_ns();
  const std::uint64_t t1 = ticks();
  return t1 > t0 ? static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0)
                 : 1.0;
}

// Process CPU time (user + system), all threads.
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Pins the calling thread to one CPU (modulo the CPU count); no-op where
// affinity cannot be set.
inline void pin_self(unsigned cpu) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

// --- the percentile rule ------------------------------------------------------

// A tail percentile is reported only where at least kMinBeyond samples lie
// beyond it. Asked for q, quantile() returns the nearest-rank q-quantile when
// the sample supports it and otherwise the highest supported percentile,
// 1 - kMinBeyond / n; `used_q` says which one it was. Fewer than
// kMinBeyond + 1 samples support no tail at all: the median is returned.
inline constexpr std::size_t kMinBeyond = 10;

struct Quantile {
  double value = 0.0;
  double used_q = 0.0;
  std::size_t samples = 0;
};

inline double supported_q(double q, std::size_t n) {
  if (n == 0) return 0.0;
  const double highest =
      1.0 - static_cast<double>(kMinBeyond) / static_cast<double>(n);
  if (q <= 0.5 || q <= highest) return q;
  return std::max(0.5, highest);
}

// Nearest-rank quantile of sorted samples.
template <typename T>
double nearest_rank(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return static_cast<double>(sorted[rank - 1]);
}

// `sorted` must be ascending.
template <typename T>
Quantile quantile(const std::vector<T>& sorted, double q) {
  Quantile out;
  out.samples = sorted.size();
  out.used_q = supported_q(q, sorted.size());
  out.value = nearest_rank(sorted, out.used_q);
  return out;
}

inline double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// --- spans --------------------------------------------------------------------

// Layer boundaries the traced run times. kSection/kRequest are roots; the
// rest are children of one root.
enum class SpanName : std::uint8_t {
  kSection = 0,    // one closed-loop atomic section
  kResolve,        // ModeTable::resolve
  kLock,           // SemanticLock::lock
  kUnlock,         // SemanticLock::unlock
  kTxnLv,          // Transaction construction + lv_ordered (the prologue)
  kTxnUnlockAll,   // Transaction::unlock_all + destruction (the epilogue)
  kAdtOp,          // adt::StripedHashMap get/put
  kBody,           // a section body the benchmark runs itself
  kRequest,        // one server request, intended arrival -> execute end
  kQueueWait,      // intended arrival -> CCBackend::execute entry
  kExec,           // CCBackend::execute
  kCount,
};

inline const char* span_metric_name(SpanName n) {
  switch (n) {
    case SpanName::kSection: return "section";
    case SpanName::kResolve: return "semlock.resolve";
    case SpanName::kLock: return "semlock.lock";
    case SpanName::kUnlock: return "semlock.unlock";
    case SpanName::kTxnLv: return "semlock.txn_lv";
    case SpanName::kTxnUnlockAll: return "semlock.txn_unlock_all";
    case SpanName::kAdtOp: return "adt.op";
    case SpanName::kBody: return "body";
    case SpanName::kRequest: return "request";
    case SpanName::kQueueWait: return "server.queue_wait";
    case SpanName::kExec: return "server.exec";
    case SpanName::kCount: break;
  }
  return "?";
}

inline constexpr std::int32_t kNoParent = -1;

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t id = 0;            // section or request id
  std::int32_t parent = kNoParent;  // index in the same buffer
  SpanName name = SpanName::kSection;
};

// Span-clock readings at the layer boundaries of one section. With kOn
// false mark() compiles to nothing, so traced and untraced runs execute the
// same section code.
template <bool kOn>
struct Stamps {
  std::array<std::uint64_t, 8> t{};
  std::size_t n = 0;
  void mark() {
    if constexpr (kOn) t[n++] = ticks();
  }
};

// Per-thread span buffer, preallocated in setup so the hot loop never
// allocates. Callers check has_room() for a whole section before tracing it.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  bool has_room(std::size_t n) const {
    return spans_.capacity() - spans_.size() >= n;
  }
  // Returns the new span's index (kNoParent, recording nothing, when full).
  std::int32_t add(SpanName name, std::uint64_t start, std::uint64_t end,
                   std::uint64_t id, std::int32_t parent) {
    if (!has_room(1)) return kNoParent;
    spans_.push_back(Span{start, end, id, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Per-name span statistics: durations, and self time (duration minus the
// part of the span's interval its children cover, overlaps counted once).
struct LayerStats {
  std::uint64_t calls = 0;
  std::vector<double> durations_ns;  // ascending after summarize_spans
  double self_ns = 0.0;
  double parent_ns = 0.0;  // summed durations of these spans' parents
};

struct SpanSummary {
  LayerStats layer[static_cast<int>(SpanName::kCount)];
  // Root time covered by any child span, over total root time.
  double covered_ns = 0.0;
  double root_ns = 0.0;
  double coverage() const { return root_ns > 0 ? covered_ns / root_ns : 0.0; }
};

// Length of the union of [s, e) intervals clipped to [lo, hi).
inline double covered_length(std::vector<std::pair<double, double>> iv,
                             double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_s = 0.0, cur_e = 0.0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

// Adds one buffer's spans to `out`. `ns_per_unit` converts span timestamps
// (ticks or ns) to ns.
inline void summarize_spans(const std::vector<Span>& spans, double ns_per_unit,
                            SpanSummary* out) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    children[static_cast<std::size_t>(s.parent)].emplace_back(
        static_cast<double>(s.start), static_cast<double>(s.end));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end - s.start);
    const double cov = covered_length(children[i], static_cast<double>(s.start),
                                      static_cast<double>(s.end));
    LayerStats& ls = out->layer[static_cast<int>(s.name)];
    ++ls.calls;
    ls.durations_ns.push_back(dur * ns_per_unit);
    ls.self_ns += (dur - cov) * ns_per_unit;
    if (s.parent != kNoParent) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      ls.parent_ns += static_cast<double>(p.end - p.start) * ns_per_unit;
    } else {
      out->root_ns += dur * ns_per_unit;
      out->covered_ns += cov * ns_per_unit;
    }
  }
}

inline void finish_summary(SpanSummary* s) {
  for (auto& ls : s->layer) {
    std::sort(ls.durations_ns.begin(), ls.durations_ns.end());
  }
}

// --- metric sink --------------------------------------------------------------

struct MetricValue {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // 0 when the value is not a sample statistic
};

class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) {
    if (!std::isfinite(value)) value = 0.0;
    values_[name] = MetricValue{value, unit, samples};
  }
  const std::map<std::string, MetricValue>& values() const { return values_; }

 private:
  std::map<std::string, MetricValue> values_;
};

// Span-layer metrics `<prefix>.{calls,p50_ns,p99_ns,self_frac}`. self_frac is
// the layer's self time over the summed duration of its parents (its share
// of the sections or requests it ran in).
inline void put_layer(MetricSink& m, const std::string& prefix,
                      const LayerStats& ls) {
  const Quantile p50 = quantile(ls.durations_ns, 0.50);
  const Quantile p99 = quantile(ls.durations_ns, 0.99);
  m.set(prefix + ".calls", static_cast<double>(ls.calls), "count");
  m.set(prefix + ".p50_ns", p50.value, "ns", p50.samples);
  m.set(prefix + ".p99_ns", p99.value, "ns", p99.samples);
  m.set(prefix + ".self_frac",
        ls.parent_ns > 0 ? ls.self_ns / ls.parent_ns : 0.0, "frac");
}

inline std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace perfbench
