// server-open: semlock-server's Server::run over the SEMANTIC backend, the
// `mixed` request mix at Zipf 0.6 on the default store, open loop (Poisson
// arrivals) with 2 workers plus the dispatcher. Latency is measured from
// each request's intended arrival at two fixed offered rates (lo, hi), and
// a fixed rate ladder finds the capacity: the highest rate at which every
// rung up to it holds p95 under the SLO with nothing shed.
//
// The backend is wrapped in a CCBackend decorator that stamps each request's
// execute() end (and, on a 1-in-16 subset or in the traced run on every
// request, its start) into arrays indexed by the dense request id; the run's
// start instant is pinned from the server's exact latency sum (gates.h).
//
// Correctness gates: per run, completed + shed == offered, the decorator saw
// every completion once, and the account total is conserved; the latency
// fit agrees with the server's own report; and a short checked replay,
// outside the timed windows, is conflict-serializable.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "gates.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "server/server.h"
#include "server/traffic_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using semlock::server::CCBackend;
using semlock::server::ExecResult;
using semlock::server::Request;
using semlock::server::RequestKind;

constexpr int kWorkers = 2;
constexpr double kTheta = 0.6;
constexpr double kLoRate = 300e3;
constexpr double kHiRate = 500e3;
// Request tails are reported, and the SLO is set, at p95: on a shared VM
// host, hypervisor preemptions of 10 us and more touch about 1% of requests,
// which puts p99 on the edge of that mode and makes it swing several-fold
// between runs (README.md, load-shape notes).
constexpr double kTailQ = 0.95;
constexpr double kSloNs = 100e3;
// The capacity ladder, req/s.
constexpr double kLadder[] = {0.6e6, 1.0e6, 1.4e6, 1.8e6, 2.2e6,
                              2.6e6, 3.0e6, 3.4e6, 3.8e6, 4.2e6};
constexpr std::uint64_t kSubRunMs = 100;
constexpr std::uint64_t kRungMs = 60;
constexpr std::size_t kWarmRequests = 200000;
constexpr std::size_t kReplayRequests = 20000;
constexpr std::uint64_t kNoWorker = 0xff;

semlock::server::ServerConfig server_config() {
  semlock::server::ServerConfig cfg;
  cfg.workers = kWorkers;
  cfg.mode = semlock::server::CCMode::kSemantic;
  return cfg;  // default shards (16) and queue capacity (1024)
}

semlock::server::TrafficConfig traffic(double rate, std::uint64_t ms,
                                       std::uint64_t seed) {
  semlock::server::TrafficConfig t;
  t.rate_rps = rate;
  t.duration_ms = ms;
  t.zipf_theta = kTheta;
  semlock::server::parse_traffic_mix("mixed", &t.mix);
  t.seed = seed;
  return t;
}

// Stamps execute() start and end times per dense request id. Arrays are
// sized by arm() before a run and read after Server::run has joined its
// workers; each element is written by the one worker that ran the request.
class StampingBackend final : public CCBackend {
 public:
  explicit StampingBackend(std::unique_ptr<CCBackend> inner)
      : inner_(std::move(inner)) {}

  void arm(std::size_t n, bool every_start) {
    end_.assign(n, 0);
    start_.assign(n, 0);
    worker_.assign(n, kNoWorker);
    every_start_ = every_start;
    next_worker_.store(0);
    generation_.fetch_add(1);
  }

  ExecResult execute(const Request& r) override {
    const bool timed = every_start_ || r.id % kTimeEvery == 0;
    const std::uint64_t s = timed ? now_ns() : 0;
    const ExecResult res = inner_->execute(r);
    end_[r.id] = now_ns();
    start_[r.id] = s;
    worker_[r.id] = worker_index();
    return res;
  }

  semlock::server::CCMode mode() const override { return inner_->mode(); }
  std::int64_t balance_total() const override { return inner_->balance_total(); }
  std::int64_t kv_inserted() const override { return inner_->kv_inserted(); }
  std::int64_t edges_present() const override {
    return inner_->edges_present();
  }
  std::uint64_t digest() const override { return inner_->digest(); }

  const std::vector<std::uint64_t>& end() const { return end_; }
  const std::vector<std::uint64_t>& start() const { return start_; }
  const std::vector<std::uint8_t>& worker() const { return worker_; }

 private:
  std::uint8_t worker_index() {
    thread_local std::uint64_t gen = 0;
    thread_local std::uint8_t idx = 0;
    const std::uint64_t g = generation_.load(std::memory_order_relaxed);
    if (gen != g) {
      gen = g;
      idx = static_cast<std::uint8_t>(next_worker_.fetch_add(1));
      pin_self(2 + idx);
    }
    return idx;
  }

  std::unique_ptr<CCBackend> inner_;
  std::vector<std::uint64_t> end_;
  std::vector<std::uint64_t> start_;
  std::vector<std::uint8_t> worker_;
  bool every_start_ = false;
  std::atomic<int> next_worker_{0};
  std::atomic<std::uint64_t> generation_{0};
};

struct Setup {
  semlock::server::StoreConfig store;
  std::unique_ptr<StampingBackend> backend;
  std::vector<Request> lo, hi, warm;
  std::vector<std::vector<Request>> ladder;
  LayerStats generate;  // one duration per generate_schedule call
  std::int64_t expected_balance = 0;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed, bool trace_events) {
  auto s = std::make_unique<Setup>();
  {
    // Mechanisms snapshot the process trace switch when their tables are
    // compiled; only the attribution instance is built with it on.
    std::unique_ptr<semlock::obs::ScopedTraceEnable> tr;
    if (trace_events) tr = std::make_unique<semlock::obs::ScopedTraceEnable>();
    s->backend = std::make_unique<StampingBackend>(
        semlock::server::make_cc_backend(semlock::server::CCMode::kSemantic,
                                         s->store));
  }
  s->expected_balance = s->store.accounts * s->store.initial_balance;
  auto gen = [&s](double rate, std::uint64_t ms, std::uint64_t sd) {
    const std::uint64_t t0 = now_ns();
    auto sched = semlock::server::generate_schedule(traffic(rate, ms, sd));
    s->generate.durations_ns.push_back(static_cast<double>(now_ns() - t0));
    ++s->generate.calls;
    return sched;
  };
  s->lo = gen(kLoRate, kSubRunMs, seed * 7 + 1);
  s->hi = gen(kHiRate, kSubRunMs, seed * 7 + 2);
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    s->ladder.push_back(gen(kLadder[i], kRungMs, seed * 7 + 3 + 1000 * i));
  }
  s->warm = gen(kHiRate, kWarmRequests * 1000 / static_cast<std::uint64_t>(kHiRate),
                seed * 7 + 4);
  std::sort(s->generate.durations_ns.begin(), s->generate.durations_ns.end());
  // Warm-up: replay a schedule unpaced, so store cells and code are hot.
  s->backend->arm(s->warm.size(), false);
  semlock::server::Server(server_config(), s->backend.get())
      .run(s->warm, false);
  return s;
}

// One paced run of a schedule and what it measured.
struct RunOut {
  semlock::server::ServerReport report;
  std::vector<std::uint64_t> latency_ns;  // exact, ascending
  std::int64_t epoch_ns = 0;
  double mean_ns = 0.0;
  double cpu_s = 0.0;
};

RunOut run_paced(Setup& s, const std::vector<Request>& sched, bool every_start,
                 Result* out, bool count_sheds) {
  RunOut r;
  s.backend->arm(sched.size(), every_start);
  const double cpu0 = process_cpu_seconds();
  r.report = semlock::server::Server(server_config(), s.backend.get())
                 .run(sched, true);
  r.cpu_s = process_cpu_seconds() - cpu0;

  const auto& end = s.backend->end();
  ServerRunFacts f;
  f.offered = r.report.offered;
  f.completed = r.report.completed;
  f.shed = r.report.shed;
  f.stamped = static_cast<std::uint64_t>(
      std::count_if(end.begin(), end.end(), [](std::uint64_t e) { return e != 0; }));
  f.balance_total = s.backend->balance_total();
  f.expected_balance_total = s.expected_balance;
  const GateResult g = server_gate(f);
  if (!g.ok) out->fail(g.what, g.failed_ops);
  if (count_sheds) {
    // A shed at a fixed rate is a refused request, not a wrong answer.
    out->attempted += r.report.offered;
    out->failed += r.report.shed;
  }

  const EpochFit fit = pin_epoch(end, sched, r.report.latency_ns);
  r.latency_ns = exact_latencies(end, sched, fit.epoch_ns);
  const GateResult eg =
      epoch_gate(fit, r.latency_ns, r.report.latency_ns, 2.0, 1000, 0.001);
  if (!eg.ok) out->fail(eg.what, eg.failed_ops);
  std::sort(r.latency_ns.begin(), r.latency_ns.end());
  r.epoch_ns = fit.epoch_ns;
  r.mean_ns = fit.decorator_mean_ns;
  return r;
}

// Per-sub-run statistics of the fixed-rate runs; every metric is the median
// over sub-runs, so one sub-run that met a stall moves it little.
struct RateOut {
  std::vector<double> p50_ns, tail_ns, mean_ns, rate, cpu_per_req;
  // execute() durations of the 1-in-16 stamped requests, and the audits
  // among them, one p50/p99 per sub-run.
  std::vector<double> exec_p50_ns, exec_p99_ns, audit_p99_ns;
  std::uint64_t samples = 0, exec_samples = 0, audit_samples = 0;
  std::uint64_t completed = 0;

  void add(const Setup& s, const std::vector<Request>& sched, const RunOut& r) {
    p50_ns.push_back(quantile(r.latency_ns, 0.50).value);
    tail_ns.push_back(quantile(r.latency_ns, kTailQ).value);
    mean_ns.push_back(r.mean_ns);
    rate.push_back(static_cast<double>(r.report.completed) /
                   r.report.wall_seconds);
    cpu_per_req.push_back(r.cpu_s * 1e6 /
                          static_cast<double>(r.report.completed));
    samples += r.latency_ns.size();
    completed += r.report.completed;
    std::vector<std::uint32_t> exec, audit;
    const auto& st = s.backend->start();
    const auto& en = s.backend->end();
    for (std::size_t i = 0; i < sched.size(); ++i) {
      if (st[i] == 0 || en[i] == 0) continue;
      const auto d = static_cast<std::uint32_t>(en[i] - st[i]);
      exec.push_back(d);
      if (sched[i].kind == RequestKind::kAudit) audit.push_back(d);
    }
    std::sort(exec.begin(), exec.end());
    std::sort(audit.begin(), audit.end());
    exec_p50_ns.push_back(quantile(exec, 0.50).value);
    exec_p99_ns.push_back(quantile(exec, 0.99).value);
    audit_p99_ns.push_back(quantile(audit, 0.99).value);
    exec_samples += exec.size();
    audit_samples += audit.size();
  }
};

// One pass up the ladder: the rate where the tail percentile crosses the
// SLO, interpolated in log latency between the last passing and the first
// failing rung. A rung that sheds fails.
double climb_ladder(Setup& s, Result* out) {
  double prev_rate = 0.0, prev = 0.0;
  for (std::size_t i = 0; i < s.ladder.size(); ++i) {
    const RunOut r = run_paced(s, s.ladder[i], false, out, false);
    double v = std::max(quantile(r.latency_ns, kTailQ).value, 1.0);
    if (r.report.shed != 0) v = std::max(v, 10 * kSloNs);
    if (v > kSloNs) {
      if (i == 0) return kLadder[0] * kSloNs / v;
      const double f = (std::log(kSloNs) - std::log(prev)) /
                       (std::log(v) - std::log(prev));
      return prev_rate + f * (kLadder[i] - prev_rate);
    }
    prev_rate = kLadder[i];
    prev = v;
  }
  return prev_rate;
}

void checked_replay(const Setup& s, Result* out) {
  semlock::HistoryRecorder rec;
  auto backend = semlock::server::make_cc_backend(
      semlock::server::CCMode::kSemantic, s.store, &rec);
  std::vector<Request> sched(s.hi.begin(),
                             s.hi.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(kReplayRequests, s.hi.size())));
  const auto rep =
      semlock::server::Server(server_config(), backend.get()).run(sched, false);
  ServerRunFacts f;
  f.offered = rep.offered;
  f.completed = rep.completed;
  f.shed = rep.shed;
  f.stamped = rep.completed;
  f.balance_total = backend->balance_total();
  f.expected_balance_total = s.expected_balance;
  GateResult g = server_gate(f);
  if (!g.ok) out->fail(g.what, g.failed_ops);
  g = replay_gate(rec.snapshot(), sched.size());
  if (!g.ok) out->fail(g.what, g.failed_ops);
}

void put_e2e(MetricSink& m, double setup_s, const RateOut& lo,
             const RateOut& hi, const std::vector<double>& capacity) {
  auto both = [&lo, &hi](const std::vector<double> RateOut::*v) {
    std::vector<double> out = lo.*v;
    out.insert(out.end(), (hi.*v).begin(), (hi.*v).end());
    return median_of(out);
  };
  m.set("setup_s", setup_s, "s", kSetupRepeats);
  m.set("throughput_ops_s", median_of(hi.rate), "1/s", hi.completed);
  m.set("section_p50_us", both(&RateOut::exec_p50_ns) / 1e3, "us",
        lo.exec_samples + hi.exec_samples);
  m.set("section_p99_us", both(&RateOut::exec_p99_ns) / 1e3, "us",
        lo.exec_samples + hi.exec_samples);
  m.set("conflicting_p99_us", both(&RateOut::audit_p99_ns) / 1e3, "us",
        lo.audit_samples + hi.audit_samples);
  m.set("cpu_us_per_op", median_of(hi.cpu_per_req), "us", hi.completed);
  m.set("req_p50_us.lo", median_of(lo.p50_ns) / 1e3, "us", lo.samples);
  m.set("req_p95_us.lo", median_of(lo.tail_ns) / 1e3, "us", lo.samples);
  m.set("req_p50_us.hi", median_of(hi.p50_ns) / 1e3, "us", hi.samples);
  m.set("req_p95_us.hi", median_of(hi.tail_ns) / 1e3, "us", hi.samples);
  m.set("capacity_rps", median_of(capacity), "1/s", capacity.size());
}

// Traced run: every request is stamped at execute() entry too, so each one
// splits into queue wait (intended arrival -> entry) and execution. Spans
// are kept for 1 request in kSpanEvery, which bounds the summary's memory.
constexpr std::size_t kSpanEvery = 8;

void add_request_spans(
    const Setup& s, const std::vector<Request>& sched, const RunOut& r,
    SpanSummary* sum, LayerStats* lag,
    std::vector<double> (&by_kind)[semlock::server::kNumRequestKinds]) {
  const auto& st = s.backend->start();
  const auto& en = s.backend->end();
  const auto& wk = s.backend->worker();
  std::vector<Span> spans;
  spans.reserve(sched.size() / kSpanEvery * 3 + 3);
  std::uint64_t last_end[256] = {};
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (en[i] == 0) continue;
    const auto arrival = static_cast<std::uint64_t>(
        r.epoch_ns + static_cast<std::int64_t>(sched[i].arrival_ns));
    const std::uint64_t entry = std::max(st[i], arrival);
    // Dispatch lag: requests whose worker had finished its previous request
    // before this one was due waited only for the dispatcher and the poll.
    std::uint64_t& prev = last_end[wk[i]];
    const bool idle_worker = prev != 0 && prev <= arrival;
    prev = en[i];
    if (i % kSpanEvery != 0) continue;
    const auto root = static_cast<std::int32_t>(spans.size());
    spans.push_back(Span{arrival, en[i], i, kNoParent, SpanName::kRequest});
    spans.push_back(Span{arrival, entry, i, root, SpanName::kQueueWait});
    spans.push_back(Span{entry, en[i], i, root, SpanName::kExec});
    by_kind[static_cast<int>(sched[i].kind)].push_back(
        static_cast<double>(en[i] - entry));
    if (idle_worker) {
      lag->durations_ns.push_back(static_cast<double>(entry - arrival));
      lag->self_ns += static_cast<double>(entry - arrival);
      lag->parent_ns += static_cast<double>(en[i] - arrival);
      ++lag->calls;
    }
  }
  summarize_spans(spans, 1.0, sum);
}

}  // namespace

void run_server_open(const Args& args, Result* out) {
  MetricSink& m = out->metrics;
  pin_self(1);
  if (!args.trace) {
    std::vector<double> setups;
    std::unique_ptr<Setup> s;
    for (int r = 0; r < kSetupRepeats; ++r) {
      s.reset();
      const std::uint64_t t0 = now_ns();
      s = set_up(args.seed, false);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    // Rounds of (lo sub-run, hi sub-run, one ladder climb) until the run's
    // time is used up.
    RateOut lo, hi;
    std::vector<double> caps;
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
    do {
      lo.add(*s, s->lo, run_paced(*s, s->lo, false, out, true));
      hi.add(*s, s->hi, run_paced(*s, s->hi, false, out, true));
      caps.push_back(climb_ladder(*s, out));
    } while (now_ns() < end);
    checked_replay(*s, out);
    put_e2e(m, median_of(setups), lo, hi, caps);
    return;
  }

  const int subruns = std::max(
      1, static_cast<int>(args.seconds * 0.4 * 1000 / kSubRunMs));
  const std::uint64_t t0 = now_ns();
  auto s = set_up(args.seed, false);
  const double setup_ns = static_cast<double>(now_ns() - t0);
  const auto acq0 = semlock::obs::collect_metrics().acquire_totals;
  RateOut ref;
  for (int k = 0; k < subruns; ++k) {
    ref.add(*s, s->hi, run_paced(*s, s->hi, false, out, true));
  }
  const auto acq1 = semlock::obs::collect_metrics();

  SpanSummary sum;
  LayerStats lag;
  std::vector<double> by_kind[semlock::server::kNumRequestKinds];
  std::vector<double> traced_mean;
  for (int k = 0; k < subruns; ++k) {
    const RunOut r = run_paced(*s, s->hi, true, out, true);
    traced_mean.push_back(r.mean_ns);
    add_request_spans(*s, s->hi, r, &sum, &lag, by_kind);
  }
  finish_summary(&sum);
  std::sort(lag.durations_ns.begin(), lag.durations_ns.end());
  put_layer(m, "server.queue_wait",
            sum.layer[static_cast<int>(SpanName::kQueueWait)]);
  put_layer(m, "server.exec", sum.layer[static_cast<int>(SpanName::kExec)]);
  put_layer(m, "server.dispatch_lag", lag);
  for (int k = 0; k < semlock::server::kNumRequestKinds; ++k) {
    std::sort(by_kind[k].begin(), by_kind[k].end());
    const Quantile q = quantile(by_kind[k], 0.50);
    m.set(std::string("server.exec.") +
              semlock::server::request_kind_name(static_cast<RequestKind>(k)) +
              ".p50_ns",
          q.value, "ns", q.samples);
  }
  LayerStats gen = s->generate;
  gen.self_ns = 0.0;
  for (double d : gen.durations_ns) gen.self_ns += d;
  gen.parent_ns = setup_ns;
  put_layer(m, "server.generate", gen);

  put_acquire_ratios(m, acquire_delta(acq0, acq1.acquire_totals),
                     acq1.acquire_totals.max_wait_ns, ref.completed);
  m.set("trace.coverage_frac", sum.coverage(), "frac",
        sum.layer[static_cast<int>(SpanName::kRequest)].calls);
  const double base = median_of(ref.mean_ns);
  m.set("trace.overhead_frac",
        base > 0 ? median_of(traced_mean) / base - 1.0 : 0.0, "frac");
  checked_replay(*s, out);
  s.reset();

  // Attribution on a backend whose mechanisms are traced.
  auto as = set_up(args.seed, true);
  semlock::obs::set_attribution_enabled(true);
  const auto attr0 = attribution_totals(semlock::obs::collect_metrics());
  for (int k = 0; k < std::max(1, subruns / 2); ++k) {
    run_paced(*as, as->hi, false, out, true);
  }
  const auto attr1 = attribution_totals(semlock::obs::collect_metrics());
  semlock::obs::set_attribution_enabled(false);
  put_false_conflict(m, attr0, attr1);

  for (const char* layer : {"semlock.resolve", "semlock.lock", "semlock.unlock",
                            "semlock.txn_lv", "semlock.txn_unlock_all",
                            "adt.op"}) {
    zero_layer(m, layer);
  }
}

}  // namespace perfbench
