// kv-zipf: one keyed map assembled from the calls SemMap makes — the map
// spec's mode table at alpha = 64, one SemanticLock, one StripedHashMap —
// driven closed-loop by 3 threads. Keys are Zipf(0.99) over 2^20; 90% of
// sections are ReadKey gets, 10% UpdateKey read-modify-writes (get, put v+1).
//
// Correctness gate: at quiescence the map's values sum to the number of
// committed increments; any difference is a lost (or phantom) update.
#include <thread>

#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "adt/striped_hash_map.h"
#include "gates.h"
#include "semlock/semantic_lock.h"
#include "server/zipf.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using semlock::commute::Value;

constexpr std::uint64_t kKeys = 1u << 20;
constexpr double kTheta = 0.99;
constexpr int kAlpha = 64;
constexpr int kUpdatePct = 10;
constexpr int kThreads = 3;
constexpr std::size_t kOpsPerThread = 1u << 20;
constexpr std::uint64_t kUpdateBit = 1ULL << 63;
// SemMap's site numbering (MapIntent).
constexpr int kReadSite = 0;
constexpr int kUpdateSite = 2;

semlock::ModeTable make_map_table(bool trace_events) {
  using semlock::commute::op;
  using semlock::commute::star;
  using semlock::commute::SymbolicSet;
  using semlock::commute::var;
  semlock::ModeTableConfig cfg;
  cfg.abstract_values = kAlpha;
  cfg.trace_events = trace_events;
  return semlock::ModeTable::compile(
      semlock::commute::map_spec(),
      {
          SymbolicSet({op("get", {var("k")}), op("containsKey", {var("k")})}),
          SymbolicSet({op("put", {var("k"), star()}), op("remove", {var("k")})}),
          SymbolicSet({op("get", {var("k")}), op("containsKey", {var("k")}),
                       op("put", {var("k"), star()}), op("remove", {var("k")})}),
          SymbolicSet({op("size"), op("clear"), op("put", {star(), star()}),
                       op("remove", {star()})}),
      },
      cfg);
}

class KvZipf {
 public:
  KvZipf(std::uint64_t seed, bool trace_events)
      : table_(make_map_table(trace_events)),
        lock_(table_),
        map_(64),
        ops_(kThreads),
        counters_(kThreads) {
    const semlock::server::ZipfSampler zipf(kKeys, kTheta);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([this, &zipf, seed, t] {
        semlock::util::Xoshiro256 rng(seed * 1000003 + static_cast<std::uint64_t>(t));
        auto& ops = ops_[static_cast<std::size_t>(t)];
        ops.resize(kOpsPerThread);
        for (auto& o : ops) {
          o = zipf.next_key(rng);
          if (rng.next_below(100) < kUpdatePct) o |= kUpdateBit;
        }
      });
    }
    for (auto& th : ts) th.join();
  }

  std::size_t ops_per_thread() const { return kOpsPerThread; }
  // The whole array's keys do not stay in cache; its first 4096 ops do.
  std::size_t lo_op_window() const { return 4096; }
  bool conflicting(int tid, std::size_t i) const {
    return (ops_[static_cast<std::size_t>(tid)][i] & kUpdateBit) != 0;
  }

  void run(int tid, std::size_t i) {
    Stamps<false> st;
    section(tid, i, st);
  }

  void run_traced(int tid, std::size_t i, std::uint64_t id, SpanBuffer& buf) {
    Stamps<true> st;
    section(tid, i, st);
    const auto& t = st.t;
    const std::int32_t root = buf.add(SpanName::kSection, t[0], t[6], id, kNoParent);
    buf.add(SpanName::kResolve, t[1], t[2], id, root);
    buf.add(SpanName::kLock, t[2], t[3], id, root);
    buf.add(SpanName::kAdtOp, t[3], t[4], id, root);
    buf.add(SpanName::kUnlock, t[4], t[5], id, root);
  }

  std::uint64_t increments() const {
    std::uint64_t n = 0;
    for (const auto& c : counters_) n += c.increments;
    return n;
  }
  std::int64_t value_sum() const {
    std::int64_t s = 0;
    map_.for_each([&s](const std::int64_t&, const std::int64_t& v) { s += v; });
    return s;
  }

 private:
  struct alignas(64) Counters {
    std::uint64_t increments = 0;
    std::int64_t sink = 0;
  };

  // One section; st.mark() brackets each call into the program.
  template <class S>
  void section(int tid, std::size_t i, S& st) {
    st.mark();
    const std::uint64_t o = ops_[static_cast<std::size_t>(tid)][i];
    const auto key = static_cast<std::int64_t>(o & ~kUpdateBit);
    const bool update = (o & kUpdateBit) != 0;
    const int site = update ? kUpdateSite : kReadSite;
    const Value vals[1] = {key};
    st.mark();
    const int mode = table_.resolve(site, vals);
    st.mark();
    const semlock::LockSiteArgs args{site, vals, 0};
    lock_.lock(mode, &args);
    st.mark();
    Counters& c = counters_[static_cast<std::size_t>(tid)];
    if (update) {
      map_.put(key, map_.get(key).value_or(0) + 1);
    } else {
      c.sink += map_.get(key).value_or(0);
    }
    st.mark();
    lock_.unlock(mode);
    st.mark();
    if (update) ++c.increments;
    st.mark();
  }

  semlock::ModeTable table_;
  semlock::SemanticLock lock_;
  semlock::adt::StripedHashMap<std::int64_t, std::int64_t> map_;
  std::vector<std::vector<std::uint64_t>> ops_;
  std::vector<Counters> counters_;
};

// Builds the workload and warms it: one full pass of every thread's op array
// inserts every key the run will ever touch, so the map stops growing.
std::unique_ptr<KvZipf> set_up(std::uint64_t seed, bool trace_events) {
  auto w = std::make_unique<KvZipf>(seed, trace_events);
  run_passes(*w, kThreads, 1);
  return w;
}

void check(const KvZipf& w, Result* out) {
  const GateResult g = kv_gate(w.value_sum(), w.increments());
  if (!g.ok) out->fail(g.what, g.failed_ops);
}

}  // namespace

void run_kv_zipf(const Args& args, Result* out) {
  run_closed_loop(
      args, out, kThreads,
      [&args](bool trace_events) { return set_up(args.seed, trace_events); },
      check, 5,
      {SpanName::kResolve, SpanName::kLock, SpanName::kUnlock,
                    SpanName::kAdtOp});
  if (args.trace) {
    zero_layer(out->metrics, "semlock.txn_lv");
    zero_layer(out->metrics, "semlock.txn_unlock_all");
    zero_server_layers(out->metrics);
  }
}

}  // namespace perfbench
