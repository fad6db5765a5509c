// Closed-loop harness shared by kv-zipf and bank-hot: T client threads each
// replay their own pre-generated op array (cycling) as fast as sections
// complete, for a fixed wall time.
//
// A workload W provides
//   std::size_t ops_per_thread() const;            // power of two
//   std::size_t lo_op_window() const;  // ops whose working set stays in
//                                      // cache (power of two; 0 = all)
//   bool conflicting(int tid, std::size_t i) const; // op of the conflicting class
//   void run(int tid, std::size_t i);               // one atomic section
//   void run_traced(int tid, std::size_t i, std::uint64_t id, SpanBuffer&);
//
// Untraced windows time a fixed 1-in-kTimeEvery subset of sections chosen by
// op index (span-clock ticks around the whole section). Traced windows record
// spans for a 1-in-trace_every subset. Throughput is the median of 100 ms
// slice rates, so one descheduled slice does not move it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "measure.h"
#include "obs/metrics.h"
#include "semlock/acquire_stats.h"

namespace perfbench {

inline constexpr std::uint64_t kTimeEvery = 16;
inline constexpr std::uint64_t kBatch = 64;
inline constexpr double kSliceSeconds = 0.1;

struct WindowOptions {
  int threads = 3;
  unsigned first_cpu = 1;  // thread t is pinned to CPU first_cpu + t
  // Replay only the first op_window ops of each array (a power of two);
  // 0 replays the whole array.
  std::size_t op_window = 0;
  double seconds = 1.0;
  bool traced = false;
  std::uint64_t trace_every = 64;
  std::size_t spans_per_section = 5;  // most spans run_traced records
  std::size_t span_capacity = 1 << 18;
  std::size_t latency_capacity = 1 << 21;
};

struct WindowResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;
  std::vector<double> slice_rates;
  std::vector<std::uint32_t> lat;       // sampled sections, ticks, ascending
  std::vector<std::uint32_t> conf_lat;  // sampled conflicting sections
  std::vector<std::vector<Span>> spans;    // one buffer per thread
  semlock::AcquireStats acq;   // collect_metrics() delta over the window
  std::uint64_t max_wait_ns = 0;  // longest wait of the window's threads

  double throughput() const { return median_of(slice_rates); }
};

inline semlock::AcquireStats acquire_delta(const semlock::AcquireStats& a,
                                           const semlock::AcquireStats& b) {
  semlock::AcquireStats d;
  d.acquisitions = b.acquisitions - a.acquisitions;
  d.contended = b.contended - a.contended;
  d.parks = b.parks - a.parks;
  d.optimistic_hits = b.optimistic_hits - a.optimistic_hits;
  d.retracts = b.retracts - a.retracts;
  d.wait_ns = b.wait_ns - a.wait_ns;
  d.wait_cpu_ns = b.wait_cpu_ns - a.wait_cpu_ns;
  d.diverted = b.diverted - a.diverted;
  d.handoffs = b.handoffs - a.handoffs;
  return d;
}

// Runs every thread's whole op array `passes` times (warm-up).
template <class W>
void run_passes(W& w, int threads, int passes) {
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&w, t, passes] {
      for (int p = 0; p < passes; ++p) {
        for (std::size_t i = 0; i < w.ops_per_thread(); ++i) w.run(t, i);
      }
    });
  }
  for (auto& th : ts) th.join();
}

// Sampling period for a traced window so that its span buffers last the
// whole window, from the per-thread rate of an untraced reference window.
inline std::uint64_t trace_every_for(const WindowResult& ref,
                                     const WindowOptions& opt) {
  if (ref.wall_s <= 0.0 || opt.threads < 1) return 1;
  const double per_thread = static_cast<double>(ref.ops) / ref.wall_s /
                            opt.threads * opt.seconds;
  const double sections = static_cast<double>(opt.span_capacity) /
                          static_cast<double>(opt.spans_per_section);
  const double every = std::ceil(per_thread / sections);
  return every < 1.0 ? 1 : static_cast<std::uint64_t>(every);
}

template <class W>
WindowResult run_window(W& w, const WindowOptions& opt) {
  struct alignas(64) PerThread {
    std::atomic<std::uint64_t> progress{0};
    std::vector<std::uint32_t> lat;
    std::vector<std::uint32_t> conf;
    std::unique_ptr<SpanBuffer> spans;
    std::uint64_t max_wait_ns = 0;
  };
  const auto T = static_cast<std::size_t>(opt.threads);
  std::vector<std::unique_ptr<PerThread>> pt;
  for (std::size_t t = 0; t < T; ++t) {
    auto p = std::make_unique<PerThread>();
    if (opt.traced) {
      p->spans = std::make_unique<SpanBuffer>(opt.span_capacity);
    } else {
      p->lat.reserve(opt.latency_capacity);
      p->conf.reserve(opt.latency_capacity / 4);
    }
    pt.push_back(std::move(p));
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  const std::uint64_t mask =
      (opt.op_window != 0 ? opt.op_window : w.ops_per_thread()) - 1;

  // One client's loop; `running()` is polled once per batch.
  auto client = [&](PerThread& me, int tid, auto&& running) {
    std::uint64_t i = 0;
    while (running()) {
      for (std::uint64_t b = 0; b < kBatch; ++b, ++i) {
        const std::size_t idx = static_cast<std::size_t>(i & mask);
        if (opt.traced) {
          if (i % opt.trace_every == 0 &&
              me.spans->has_room(opt.spans_per_section)) {
            w.run_traced(tid, idx, i, *me.spans);
          } else {
            w.run(tid, idx);
          }
        } else if ((i & (kTimeEvery - 1)) == 0) {
          const std::uint64_t t0 = ticks();
          w.run(tid, idx);
          const auto d = static_cast<std::uint32_t>(ticks() - t0);
          if (me.lat.size() < me.lat.capacity()) me.lat.push_back(d);
          if (w.conflicting(tid, idx) && me.conf.size() < me.conf.capacity()) {
            me.conf.push_back(d);
          }
        } else {
          w.run(tid, idx);
        }
      }
      me.progress.store(i, std::memory_order_relaxed);
    }
  };

  const semlock::AcquireStats acq0 = semlock::obs::collect_metrics().acquire_totals;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < T; ++t) {
    ts.emplace_back([&, t] {
      PerThread& me = *pt[t];
      pin_self(opt.first_cpu + static_cast<unsigned>(t));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      client(me, static_cast<int>(t),
             [&stop] { return !stop.load(std::memory_order_relaxed); });
      // Threads are fresh per window, so the thread-local maximum is the
      // window's maximum.
      me.max_wait_ns = semlock::local_acquire_stats().max_wait_ns;
    });
  }
  while (ready.load() < opt.threads) std::this_thread::yield();

  WindowResult r;
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t start = now_ns();
  go.store(true, std::memory_order_release);
  std::uint64_t last_ops = 0;
  std::uint64_t last_t = start;
  const auto end_at = start + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= end_at) break;
    const double left = static_cast<double>(end_at - now) / 1e9;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(kSliceSeconds, left)));
    const std::uint64_t t = now_ns();
    std::uint64_t ops = 0;
    for (auto& p : pt) ops += p->progress.load(std::memory_order_relaxed);
    if (t - last_t >= static_cast<std::uint64_t>(kSliceSeconds * 0.5e9)) {
      r.slice_rates.push_back(static_cast<double>(ops - last_ops) /
                              (static_cast<double>(t - last_t) / 1e9));
    }
    last_ops = ops;
    last_t = t;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : ts) th.join();
  r.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  r.cpu_s = process_cpu_seconds() - cpu0;
  r.acq = acquire_delta(acq0, semlock::obs::collect_metrics().acquire_totals);

  for (auto& p : pt) {
    r.ops += p->progress.load();
    r.lat.insert(r.lat.end(), p->lat.begin(), p->lat.end());
    r.conf_lat.insert(r.conf_lat.end(), p->conf.begin(), p->conf.end());
    r.max_wait_ns = std::max(r.max_wait_ns, p->max_wait_ns);
    if (p->spans) r.spans.push_back(p->spans->spans());
  }
  std::sort(r.lat.begin(), r.lat.end());
  std::sort(r.conf_lat.begin(), r.conf_lat.end());
  return r;
}

}  // namespace perfbench
