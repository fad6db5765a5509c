// The three perfbench workloads and what they share: arguments, the result
// they fill, and the metric names of layers a workload does not exercise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "measure.h"
#include "obs/attribution.h"
#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Result {
  MetricSink metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;  // empty when every gate passed

  void fail(const std::string& what, std::uint64_t ops) {
    gate_failures.push_back(what);
    failed += ops;
  }
};

void run_kv_zipf(const Args& args, Result* out);
void run_bank_hot(const Args& args, Result* out);
void run_server_open(const Args& args, Result* out);

// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;


// A layer the workload never calls reports zero calls and zero times.
inline void zero_layer(MetricSink& m, const std::string& prefix) {
  put_layer(m, prefix, LayerStats{});
}

inline void zero_server_layers(MetricSink& m) {
  zero_layer(m, "server.queue_wait");
  zero_layer(m, "server.dispatch_lag");
  zero_layer(m, "server.exec");
  zero_layer(m, "server.generate");
  for (const char* k : {"compute_if_absent", "transfer", "audit", "insert_edge",
                        "remove_edge", "degree"}) {
    m.set(std::string("server.exec.") + k + ".p50_ns", 0.0, "ns");
  }
}

// Ratios over the program's own acquisition counters (obs acquire_totals
// deltas of an untraced window) plus the window's longest wait.
inline void put_acquire_ratios(MetricSink& m, const semlock::AcquireStats& a,
                               std::uint64_t max_wait_ns,
                               std::uint64_t sections) {
  const double acq = static_cast<double>(a.acquisitions);
  auto per = [](double x, double base) { return base > 0 ? x / base : 0.0; };
  m.set("semlock.optimistic_hit_frac",
        per(static_cast<double>(a.optimistic_hits), acq), "frac");
  m.set("semlock.retract_frac", per(static_cast<double>(a.retracts), acq),
        "frac");
  m.set("semlock.acquisitions_per_op",
        per(acq, static_cast<double>(sections)), "count");
  m.set("semlock.diverted_per_kacq",
        per(1000.0 * static_cast<double>(a.diverted), acq), "count");
  m.set("semlock.handoffs_per_kacq",
        per(1000.0 * static_cast<double>(a.handoffs), acq), "count");
  m.set("runtime.contended_frac", per(static_cast<double>(a.contended), acq),
        "frac");
  m.set("runtime.wait_ns_per_acq", per(static_cast<double>(a.wait_ns), acq),
        "ns");
  m.set("runtime.parks_per_kacq",
        per(1000.0 * static_cast<double>(a.parks), acq), "count");
  m.set("runtime.max_wait_us", static_cast<double>(max_wait_ns) / 1e3, "us");
  m.set("runtime.wait_cpu_frac",
        per(static_cast<double>(a.wait_cpu_ns), static_cast<double>(a.wait_ns)),
        "frac");
}

// Attribution classes summed over every mode pair of a metrics snapshot.
inline std::vector<std::uint64_t> attribution_totals(
    const semlock::obs::MetricsSnapshot& s) {
  std::vector<std::uint64_t> out(semlock::obs::kNumAttrClasses, 0);
  for (const auto& cell : s.attribution) {
    for (std::size_t c = 0; c < semlock::obs::kNumAttrClasses; ++c) {
      out[c] += cell.counts[c];
    }
  }
  return out;
}

// obs.false_conflict_frac: (PHI_COLLISION + MODE_OVERAPPROX) over classified
// (every class but UNSAMPLED) contended waits between two snapshots. No claim
// may rest on it until the classifier's multi-core sampling defect is fixed:
// on four cores it files most phi-collision waits as SELF_MODE.
inline void put_false_conflict(MetricSink& m,
                               const std::vector<std::uint64_t>& before,
                               const std::vector<std::uint64_t>& after) {
  using semlock::obs::AttrClass;
  auto d = [&](AttrClass c) {
    const auto i = static_cast<std::size_t>(c);
    return static_cast<double>(after[i] - before[i]);
  };
  double classified = 0.0;
  for (std::size_t c = 0; c < semlock::obs::kNumAttrClasses; ++c) {
    if (c != static_cast<std::size_t>(AttrClass::kUnsampled)) {
      classified += static_cast<double>(after[c] - before[c]);
    }
  }
  const double false_conf =
      d(AttrClass::kPhiCollision) + d(AttrClass::kModeOverapprox);
  m.set("obs.false_conflict_frac", classified > 0 ? false_conf / classified : 0.0,
        "frac", static_cast<std::uint64_t>(classified));
}

// End-to-end statistics of a closed loop, gathered per chunk: one chunk is
// a 3-thread main window followed by a 1-thread window. Each latency or cost
// metric is the median of its per-chunk values, so a chunk that met a noisy
// neighbour moves it less than one long window would. Section latencies are
// in ticks; `us_per_tick` converts.
struct ClosedLoopChunks {
  std::vector<double> slice_rates;  // every main-window slice
  std::vector<double> p50, p95, p99, conf_p99, cpu_per_op, lo_p50, lo_p95;
  std::uint64_t lat_samples = 0, conf_samples = 0, lo_samples = 0, ops = 0;

  void add(const WindowResult& main, const WindowResult& lo,
           double us_per_tick) {
    slice_rates.insert(slice_rates.end(), main.slice_rates.begin(),
                       main.slice_rates.end());
    p50.push_back(quantile(main.lat, 0.50).value * us_per_tick);
    p95.push_back(quantile(main.lat, 0.95).value * us_per_tick);
    p99.push_back(quantile(main.lat, 0.99).value * us_per_tick);
    conf_p99.push_back(quantile(main.conf_lat, 0.99).value * us_per_tick);
    lo_p50.push_back(quantile(lo.lat, 0.50).value * us_per_tick);
    lo_p95.push_back(quantile(lo.lat, 0.95).value * us_per_tick);
    if (main.ops > 0) {
      cpu_per_op.push_back(main.cpu_s * 1e6 / static_cast<double>(main.ops));
    }
    lat_samples += main.lat.size();
    conf_samples += main.conf_lat.size();
    lo_samples += lo.lat.size();
    ops += main.ops;
  }
};

inline void put_closed_loop_e2e(MetricSink& m, double setup_s,
                                const ClosedLoopChunks& c) {
  const double tput = median_of(c.slice_rates);
  m.set("setup_s", setup_s, "s", kSetupRepeats);
  m.set("throughput_ops_s", tput, "1/s", c.slice_rates.size());
  m.set("capacity_rps", tput, "1/s", c.slice_rates.size());
  m.set("section_p50_us", median_of(c.p50), "us", c.lat_samples);
  m.set("section_p99_us", median_of(c.p99), "us", c.lat_samples);
  m.set("conflicting_p99_us", median_of(c.conf_p99), "us", c.conf_samples);
  m.set("cpu_us_per_op", median_of(c.cpu_per_op), "us", c.ops);
  m.set("req_p50_us.lo", median_of(c.lo_p50), "us", c.lo_samples);
  m.set("req_p95_us.lo", median_of(c.lo_p95), "us", c.lo_samples);
  m.set("req_p50_us.hi", median_of(c.p50), "us", c.lat_samples);
  m.set("req_p95_us.hi", median_of(c.p95), "us", c.lat_samples);
}

// Per-layer metrics of a closed loop from its reference (untraced), span
// and attribution windows.
inline void put_closed_loop_layers(MetricSink& m, const WindowResult& ref,
                                   const WindowResult& traced,
                                   double ns_per_tick,
                                   const std::vector<SpanName>& layers,
                                   const std::vector<std::uint64_t>& attr0,
                                   const std::vector<std::uint64_t>& attr1) {
  SpanSummary sum;
  for (const auto& buf : traced.spans) summarize_spans(buf, ns_per_tick, &sum);
  finish_summary(&sum);
  for (SpanName n : layers) {
    put_layer(m, span_metric_name(n), sum.layer[static_cast<int>(n)]);
  }
  put_acquire_ratios(m, ref.acq, ref.max_wait_ns, ref.ops);
  put_false_conflict(m, attr0, attr1);
  m.set("trace.coverage_frac", sum.coverage(), "frac",
        sum.layer[static_cast<int>(SpanName::kSection)].calls);
  const double base = ref.throughput();
  m.set("trace.overhead_frac", base > 0 ? 1.0 - traced.throughput() / base : 0.0,
        "frac");
}

// The run of a closed-loop workload. Untraced: set up kSetupRepeats times
// (setup_s is the median), then one chunk per second of the run, each a
// 3-thread main window (70% of it) and a 1-thread window (30%). Traced: an untraced reference window (40%),
// a span window (40%), and an attribution window (20%) on a fresh instance
// whose mechanisms are traced — attribution classifies only traced
// mechanisms, and tracing them would otherwise bias the span window.
//   set_up(trace_events) -> std::unique_ptr<W>, warmed up
//   check(const W&, Result*) runs the workload's correctness gates
template <class SetUp, class Check>
void run_closed_loop(const Args& args, Result* out, int threads, SetUp set_up,
                     Check check, std::size_t spans_per_section,
                     const std::vector<SpanName>& layers) {
  MetricSink& m = out->metrics;
  WindowOptions opt;
  opt.threads = threads;
  const double ns_per_tick = calibrate_ns_per_tick();
  if (!args.trace) {
    std::vector<double> setups;
    decltype(set_up(false)) w;
    for (int r = 0; r < kSetupRepeats; ++r) {
      w.reset();
      const std::uint64_t t0 = now_ns();
      w = set_up(false);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    const int chunks = std::max(1, static_cast<int>(std::lround(args.seconds)));
    ClosedLoopChunks c;
    opt.seconds = args.seconds * 0.7 / chunks;
    for (int k = 0; k < chunks; ++k) {
      const WindowResult main = run_window(*w, opt);
      // The 1-thread window measures the uncontended, cache-warm cost of a
      // section: one client replaying the workload's cache-resident op set
      // (README.md says why). It visits CPUs 1-3 in turn, so no one CPU's
      // neighbours set it.
      WindowOptions lo_opt;
      lo_opt.threads = 1;
      lo_opt.first_cpu = 1 + static_cast<unsigned>(k % 3);
      lo_opt.op_window = w->lo_op_window();
      lo_opt.seconds = args.seconds * 0.3 / chunks;
      const WindowResult lo = run_window(*w, lo_opt);
      c.add(main, lo, ns_per_tick / 1e3);
      out->attempted += main.ops + lo.ops;
    }
    put_closed_loop_e2e(m, median_of(setups), c);
    check(*w, out);
    return;
  }

  auto w = set_up(false);
  opt.seconds = args.seconds * 0.4;
  const WindowResult ref = run_window(*w, opt);
  WindowOptions span_opt = opt;
  span_opt.traced = true;
  span_opt.spans_per_section = spans_per_section;
  span_opt.trace_every = trace_every_for(ref, span_opt);
  const WindowResult traced = run_window(*w, span_opt);
  out->attempted = ref.ops + traced.ops;
  check(*w, out);
  w.reset();

  auto aw = set_up(true);
  semlock::obs::set_attribution_enabled(true);
  const auto attr0 = attribution_totals(semlock::obs::collect_metrics());
  opt.seconds = args.seconds * 0.2;
  const WindowResult attr = run_window(*aw, opt);
  const auto attr1 = attribution_totals(semlock::obs::collect_metrics());
  semlock::obs::set_attribution_enabled(false);
  out->attempted += attr.ops;
  check(*aw, out);

  put_closed_loop_layers(m, ref, traced, ns_per_tick, layers, attr0, attr1);
}

}  // namespace perfbench
