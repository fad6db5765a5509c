// Self-test of the perfbench measurement code: span self-time arithmetic,
// the percentile rule, epoch pinning on a synthetic schedule, and every
// correctness gate firing on a deliberately broken input. Exits non-zero on
// the first failed check.
//
//   perfbench_selftest        (or: python3 perfbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "commute/builtin_specs.h"
#include "gates.h"
#include "measure.h"
#include "util/rng.h"

namespace {

int g_checks = 0;

void expect(bool ok, const char* what) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

using perfbench::kNoParent;
using perfbench::Span;
using perfbench::SpanName;

void span_self_time() {
  // Root [0,100); children overlap each other and one runs past the root's
  // end: covered = [10,50) + [90,100) = 50.
  std::vector<Span> spans = {
      {0, 100, 1, kNoParent, SpanName::kSection},
      {10, 30, 1, 0, SpanName::kResolve},
      {20, 50, 1, 0, SpanName::kLock},
      {90, 120, 1, 0, SpanName::kUnlock},
      // A grandchild covering half of the lock span.
      {20, 35, 1, 2, SpanName::kAdtOp},
  };
  perfbench::SpanSummary s;
  perfbench::summarize_spans(spans, 2.0, &s);  // 2 ns per unit
  perfbench::finish_summary(&s);
  const auto& root = s.layer[static_cast<int>(SpanName::kSection)];
  const auto& lock = s.layer[static_cast<int>(SpanName::kLock)];
  const auto& adt = s.layer[static_cast<int>(SpanName::kAdtOp)];
  expect(root.calls == 1 && near(root.self_ns, 100.0),
         "root self time = duration - union of children");
  expect(near(s.covered_ns, 100.0) && near(s.root_ns, 200.0) &&
             near(s.coverage(), 0.5),
         "coverage = covered root time / root time");
  expect(near(lock.self_ns, 30.0) && near(lock.parent_ns, 200.0),
         "child self time excludes its own children");
  expect(near(adt.self_ns, 30.0) && near(adt.parent_ns, 60.0),
         "grandchild's parent is the lock span");
  expect(near(perfbench::covered_length({{5, 6}, {1, 3}, {2, 4}}, 0, 10), 4.0),
         "interval union merges overlaps");
}

void percentile_rule() {
  std::vector<std::uint32_t> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint32_t>(i + 1);
  auto q = perfbench::quantile(v, 0.99);
  expect(near(q.used_q, 0.99) && near(q.value, 990.0) && q.samples == 1000,
         "p99 of 1000 samples has 10 beyond it and is reported as p99");
  v.resize(500);
  q = perfbench::quantile(v, 0.99);
  expect(near(q.used_q, 0.98) && near(q.value, 490.0),
         "p99 of 500 samples falls back to p98 (10 beyond)");
  v.resize(5);
  q = perfbench::quantile(v, 0.99);
  expect(near(q.used_q, 0.5) && near(q.value, 3.0),
         "too few samples for any tail: the median");
  q = perfbench::quantile(v, 0.5);
  expect(near(q.value, 3.0), "nearest-rank median");
  expect(near(perfbench::median_of({4, 1, 3, 2}), 2.5), "even-count median");
}

void epoch_pinning() {
  using semlock::server::Request;
  semlock::util::Xoshiro256 rng(7);
  const std::int64_t start = 5'000'000'000'000;  // the hidden run start
  const std::int64_t stamp_lead = 40;            // decorator stamps earlier
  std::vector<Request> sched(20000);
  std::vector<std::uint64_t> end(sched.size());
  std::vector<std::uint64_t> truth;
  semlock::util::Log2Histogram report;
  std::uint64_t arrival = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    arrival += 1 + rng.next_below(3000);
    sched[i].id = i;
    sched[i].arrival_ns = arrival;
    if (i % 97 == 0) continue;  // shed: never executed
    const std::uint64_t lat = 300 + rng.next_below(50000);
    truth.push_back(lat);
    report.add(lat);
    end[i] = static_cast<std::uint64_t>(start + static_cast<std::int64_t>(
                                                    arrival + lat) -
                                        stamp_lead);
  }
  const perfbench::EpochFit fit = perfbench::pin_epoch(end, sched, report);
  expect(fit.epoch_ns == start - stamp_lead, "epoch = start on the stamp clock");
  const auto exact = perfbench::exact_latencies(end, sched, fit.epoch_ns);
  expect(exact == truth, "exact latencies recovered per request");
  expect(perfbench::epoch_gate(fit, exact, report, 2.0, 1000, 0.001).ok,
         "consistent fit passes");

  // Broken input: the report describes other latencies (a different run).
  semlock::util::Log2Histogram other;
  for (std::uint64_t l : truth) other.add(l * 3);
  const perfbench::EpochFit bad = perfbench::pin_epoch(end, sched, other);
  expect(!perfbench::epoch_gate(bad, perfbench::exact_latencies(end, sched,
                                                                bad.epoch_ns),
                                other, 2.0, 1000, 0.001)
              .ok,
         "fit against a foreign report fails");
}

void gates_fire() {
  expect(perfbench::kv_gate(1234, 1234).ok, "kv gate passes when sums agree");
  const auto kv = perfbench::kv_gate(1233, 1234);
  expect(!kv.ok && kv.failed_ops == 1, "kv gate fires on a lost update");

  expect(perfbench::bank_gate(64000, 64000, 0).ok, "bank gate passes");
  expect(!perfbench::bank_gate(63999, 64000, 0).ok,
         "bank gate fires on a non-conserved total");
  const auto torn = perfbench::bank_gate(64000, 64000, 3);
  expect(!torn.ok && torn.failed_ops == 3, "bank gate fires on torn audits");

  perfbench::ServerRunFacts f;
  f.offered = 100;
  f.completed = 98;
  f.shed = 2;
  f.stamped = 98;
  f.balance_total = f.expected_balance_total = 512000;
  expect(perfbench::server_gate(f).ok, "server gate passes");
  auto lost = f;
  lost.completed = 97;
  lost.stamped = 97;
  expect(!perfbench::server_gate(lost).ok, "server gate fires on a lost request");
  auto unstamped = f;
  unstamped.stamped = 96;
  expect(!perfbench::server_gate(unstamped).ok,
         "server gate fires when the decorator missed executions");
  auto money = f;
  money.balance_total = 511999;
  expect(!perfbench::server_gate(money).ok,
         "server gate fires on a non-conserved balance");

  // Two transactions that each read a register the other then writes:
  // T1 -> T2 on x, T2 -> T1 on y, a cycle.
  const auto& reg = semlock::commute::register_spec();
  const int write = reg.method_index("write");
  const int read = reg.method_index("readCell");
  const int x = 0, y = 0;
  semlock::HistoryRecorder ok, cyc;
  ok.record(1, &x, &reg, read, {});
  ok.record(1, &y, &reg, write, {2});
  ok.record(2, &x, &reg, write, {1});
  ok.record(2, &y, &reg, read, {});
  expect(perfbench::replay_gate(ok.snapshot(), 2).ok,
         "replay gate passes a serial history");
  cyc.record(1, &x, &reg, read, {});
  cyc.record(2, &x, &reg, write, {1});
  cyc.record(2, &y, &reg, read, {});
  cyc.record(1, &y, &reg, write, {2});
  expect(!perfbench::replay_gate(cyc.snapshot(), 2).ok,
         "replay gate fires on a non-serializable history");
}

}  // namespace

int main() {
  span_self_time();
  percentile_rule();
  epoch_pinning();
  gates_fire();
  std::printf("perfbench selftest: %d checks passed\n", g_checks);
  return 0;
}
