// Correctness gates and the server-latency epoch fit. Each gate is a pure
// function of what a workload observed, so the self-test can feed it a
// deliberately broken input and watch it fire.
#pragma once

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "semlock/history.h"
#include "server/request.h"
#include "util/stats.h"

namespace perfbench {

struct GateResult {
  bool ok = true;
  std::uint64_t failed_ops = 0;
  std::string what;
};

inline std::uint64_t abs_diff(std::int64_t a, std::int64_t b) {
  return a > b ? static_cast<std::uint64_t>(a - b)
               : static_cast<std::uint64_t>(b - a);
}

// kv-zipf: every committed UpdateKey adds exactly 1 to one value.
inline GateResult kv_gate(std::int64_t value_sum, std::uint64_t increments) {
  GateResult g;
  const std::uint64_t d =
      abs_diff(value_sum, static_cast<std::int64_t>(increments));
  if (d != 0) {
    g.ok = false;
    g.failed_ops = d;
    g.what = "kv-zipf: value sum " + std::to_string(value_sum) + " != " +
             std::to_string(increments) + " committed increments";
  }
  return g;
}

// bank-hot: transfers conserve the total, and an Audit's two reads of its
// pair agree (no transfer may touch an audited account mid-audit).
inline GateResult bank_gate(std::int64_t total, std::int64_t expected_total,
                            std::uint64_t torn_audits) {
  GateResult g;
  if (total != expected_total) {
    g.ok = false;
    g.failed_ops += 1;
    g.what = "bank-hot: balance total " + std::to_string(total) +
             " != " + std::to_string(expected_total);
  }
  if (torn_audits != 0) {
    g.ok = false;
    g.failed_ops += torn_audits;
    if (!g.what.empty()) g.what += "; ";
    g.what += "bank-hot: " + std::to_string(torn_audits) +
              " audits read a pair that changed under them";
  }
  return g;
}

// server-open, per Server::run: every offered request completed or was
// shed, every completed request passed through the decorator exactly once,
// and transfers conserved the account total.
struct ServerRunFacts {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t stamped = 0;  // requests the decorator saw finish
  std::int64_t balance_total = 0;
  std::int64_t expected_balance_total = 0;
};

inline GateResult server_gate(const ServerRunFacts& f) {
  GateResult g;
  auto add = [&g](std::uint64_t ops, const std::string& what) {
    g.ok = false;
    g.failed_ops += ops;
    if (!g.what.empty()) g.what += "; ";
    g.what += "server-open: " + what;
  };
  if (f.completed + f.shed != f.offered) {
    add(f.offered > f.completed + f.shed ? f.offered - f.completed - f.shed : 1,
        "completed " + std::to_string(f.completed) + " + shed " +
            std::to_string(f.shed) + " != offered " + std::to_string(f.offered));
  }
  if (f.stamped != f.completed) {
    add(f.stamped > f.completed ? f.stamped - f.completed
                                : f.completed - f.stamped,
        "decorator saw " + std::to_string(f.stamped) + " executions, report " +
            std::to_string(f.completed));
  }
  if (f.balance_total != f.expected_balance_total) {
    add(1, "balance total " + std::to_string(f.balance_total) + " != " +
               std::to_string(f.expected_balance_total));
  }
  return g;
}

// server-open checked replay: the recorded history is conflict-serializable.
inline GateResult replay_gate(const std::vector<semlock::HistoryEvent>& h,
                              std::uint64_t transactions) {
  GateResult g;
  const semlock::SerializabilityReport rep =
      semlock::check_conflict_serializability(h);
  if (!rep.serializable) {
    g.ok = false;
    g.failed_ops = rep.cycle.empty() ? 1 : rep.cycle.size();
    g.what = "server-open: checked replay of " + std::to_string(transactions) +
             " requests is not serializable: " + rep.to_string();
  }
  return g;
}

// --- exact server latency from outside ---------------------------------------
//
// Server::run measures each request's latency as (its own clock at execute
// end) - (run start) - arrival_ns, and sums those exactly in
// latency_ns.total(); the run start instant is not exposed. The decorator
// stamps absolute execute-end times E_i, so
//   epoch = mean(E_i - arrival_i) - total / count
// is the run start on the decorator's clock (up to the few ns between the
// decorator's stamp and the server's), and E_i - epoch - arrival_i is each
// request's exact latency.
struct EpochFit {
  std::int64_t epoch_ns = 0;
  double decorator_mean_ns = 0.0;
  double report_mean_ns = 0.0;
  // Latest epoch the stamps allow: no request can finish before it arrives.
  std::int64_t latest_epoch_ns = 0;
};

// `end_ns[i]` is 0 for requests that never executed (shed).
inline EpochFit pin_epoch(const std::vector<std::uint64_t>& end_ns,
                          const std::vector<semlock::server::Request>& sched,
                          const semlock::util::Log2Histogram& report_latency) {
  EpochFit f;
  unsigned __int128 sum = 0;
  std::uint64_t n = 0;
  std::int64_t latest = INT64_MAX;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (end_ns[i] == 0) continue;
    const auto d = static_cast<std::int64_t>(end_ns[i] - sched[i].arrival_ns);
    sum += static_cast<unsigned __int128>(d);
    latest = std::min(latest, d);
    ++n;
  }
  if (n == 0 || report_latency.count() == 0) return f;
  const auto total = static_cast<unsigned __int128>(report_latency.total());
  // epoch = (sum - total * n / count) / n, kept integral.
  const unsigned __int128 scaled = total * n / report_latency.count();
  f.epoch_ns = static_cast<std::int64_t>((sum - scaled) / n);
  f.latest_epoch_ns = latest;
  f.report_mean_ns = static_cast<double>(report_latency.total()) /
                     static_cast<double>(report_latency.count());
  const double mean_d = static_cast<double>(sum / n) +
                        static_cast<double>(sum % n) / static_cast<double>(n);
  f.decorator_mean_ns = mean_d - static_cast<double>(f.epoch_ns);
  return f;
}

// Exact latencies (ns) of executed requests under a pinned epoch.
inline std::vector<std::uint64_t> exact_latencies(
    const std::vector<std::uint64_t>& end_ns,
    const std::vector<semlock::server::Request>& sched, std::int64_t epoch_ns) {
  std::vector<std::uint64_t> out;
  out.reserve(sched.size());
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (end_ns[i] == 0) continue;
    const std::int64_t l = static_cast<std::int64_t>(end_ns[i]) - epoch_ns -
                           static_cast<std::int64_t>(sched[i].arrival_ns);
    out.push_back(l > 0 ? static_cast<std::uint64_t>(l) : 0);
  }
  return out;
}

// The fit is accepted when the decorator's mean equals the report's exact
// mean within `tol_ns`, the epoch is no later than the stamps allow (plus
// `tol_ns`), and the report's log2 histogram is the histogram of the exact
// latencies shifted by at most `shift_ns`: for every power of two B, the
// report's count of samples >= B lies between the exact counts of samples
// >= B + shift_ns and >= B - shift_ns, give or take `slack_frac` of the
// samples. (A worker descheduled between the decorator's stamp and the
// server's moves the fitted epoch by a few ns for every request.)
inline GateResult epoch_gate(const EpochFit& f, std::vector<std::uint64_t> exact,
                             const semlock::util::Log2Histogram& report,
                             double tol_ns, std::uint64_t shift_ns,
                             double slack_frac) {
  GateResult g;
  auto add = [&g](const std::string& what) {
    g.ok = false;
    g.failed_ops += 1;
    if (!g.what.empty()) g.what += "; ";
    g.what += "server-open latency fit: " + what;
  };
  if (std::abs(f.decorator_mean_ns - f.report_mean_ns) > tol_ns) {
    add("decorator mean " + std::to_string(f.decorator_mean_ns) +
        " ns != report mean " + std::to_string(f.report_mean_ns) + " ns");
  }
  if (static_cast<double>(f.epoch_ns) >
      static_cast<double>(f.latest_epoch_ns) + tol_ns) {
    add("epoch after the earliest finish-minus-arrival");
  }
  if (exact.size() != report.count()) {
    add(std::to_string(exact.size()) + " exact latencies, report has " +
        std::to_string(report.count()));
    return g;
  }
  std::sort(exact.begin(), exact.end());
  auto at_least = [&exact](double x) {
    if (x <= 0) return static_cast<std::uint64_t>(exact.size());
    const auto it = std::lower_bound(exact.begin(), exact.end(),
                                     static_cast<std::uint64_t>(std::ceil(x)));
    return static_cast<std::uint64_t>(exact.end() - it);
  };
  const double slack = slack_frac * static_cast<double>(exact.size());
  std::uint64_t above = report.count();  // report samples in buckets >= b
  for (std::size_t b = 1; b < semlock::util::Log2Histogram::kBuckets; ++b) {
    above -= report.bucket(b - 1);
    if (above == 0) break;
    const double bound = std::ldexp(1.0, static_cast<int>(b) - 1);  // 2^(b-1)
    const double lo = static_cast<double>(at_least(bound + static_cast<double>(shift_ns)));
    const double hi = static_cast<double>(at_least(bound - static_cast<double>(shift_ns)));
    const double r = static_cast<double>(above);
    if (r < lo - slack || r > hi + slack) {
      add("report has " + std::to_string(above) + " samples >= " +
          std::to_string(static_cast<std::uint64_t>(bound)) +
          " ns, exact latencies give " + std::to_string(static_cast<std::uint64_t>(lo)) +
          ".." + std::to_string(static_cast<std::uint64_t>(hi)));
      break;
    }
  }
  return g;
}

}  // namespace perfbench
