// bank-hot: 64 account instances over the account spec's 2-mode table
// (self-commuting Move = {deposit(*), withdraw(*)}, conflicting Audit =
// {balance()}), the table the server's SEMANTIC backend uses. Accounts are
// Zipf(0.99); 90% of sections transfer between two accounts, 10% audit two,
// each through Transaction::lv_ordered over the pair. Writes commute and
// reads conflict: the lock layer used the other way round from kv-zipf.
//
// Correctness gates: the balance total is conserved at quiescence, and an
// Audit reads its pair twice and must see the same values both times.
#include <thread>

#include "commute/builtin_specs.h"
#include "commute/symbolic.h"
#include "gates.h"
#include "semlock/semantic_lock.h"
#include "semlock/transaction.h"
#include "server/zipf.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kAccounts = 64;
constexpr double kTheta = 0.99;
constexpr int kAuditPct = 10;
constexpr int kThreads = 3;
constexpr std::size_t kOpsPerThread = 1u << 18;
constexpr std::int64_t kInitialBalance = 1000000;

semlock::ModeTable make_account_table(bool trace_events) {
  using semlock::commute::op;
  using semlock::commute::star;
  using semlock::commute::SymbolicSet;
  semlock::ModeTableConfig cfg;
  cfg.trace_events = trace_events;
  return semlock::ModeTable::compile(
      semlock::commute::account_spec(),
      {
          SymbolicSet({op("deposit", {star()}), op("withdraw", {star()})}),
          SymbolicSet({op("balance")}),
      },
      cfg);
}

// One op packed into 32 bits: from (6) | to (6) | amount (7) | audit (1).
struct Op {
  std::uint32_t from : 6;
  std::uint32_t to : 6;
  std::uint32_t amount : 7;
  std::uint32_t audit : 1;
};

class BankHot {
 public:
  BankHot(std::uint64_t seed, bool trace_events)
      : table_(make_account_table(trace_events)),
        move_(table_.resolve_constant(0)),
        audit_(table_.resolve_constant(1)),
        balances_(kAccounts),
        ops_(kThreads),
        counters_(kThreads) {
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
      locks_.push_back(std::make_unique<semlock::SemanticLock>(table_));
      balances_[a].v.store(kInitialBalance, std::memory_order_relaxed);
    }
    const semlock::server::ZipfSampler zipf(kAccounts, kTheta);
    for (int t = 0; t < kThreads; ++t) {
      semlock::util::Xoshiro256 rng(seed * 1000003 + static_cast<std::uint64_t>(t));
      auto& ops = ops_[static_cast<std::size_t>(t)];
      ops.resize(kOpsPerThread);
      for (auto& o : ops) {
        const auto a = static_cast<std::uint32_t>(zipf.next_key(rng));
        auto b = static_cast<std::uint32_t>(zipf.next_key(rng));
        if (b == a) b = (a + 1) % kAccounts;
        o.from = a;
        o.to = b;
        o.amount = static_cast<std::uint32_t>(1 + rng.next_below(100));
        o.audit = rng.next_below(100) < kAuditPct ? 1 : 0;
      }
    }
  }

  std::size_t ops_per_thread() const { return kOpsPerThread; }
  // 64 accounts stay in cache; a short prefix would fix one op mix per seed.
  std::size_t lo_op_window() const { return 0; }
  bool conflicting(int tid, std::size_t i) const {
    return ops_[static_cast<std::size_t>(tid)][i].audit != 0;
  }

  void run(int tid, std::size_t i) {
    Stamps<false> st;
    section(tid, i, st);
  }

  void run_traced(int tid, std::size_t i, std::uint64_t id, SpanBuffer& buf) {
    Stamps<true> st;
    section(tid, i, st);
    const auto& t = st.t;
    const std::int32_t root = buf.add(SpanName::kSection, t[0], t[4], id, kNoParent);
    buf.add(SpanName::kTxnLv, t[1], t[2], id, root);
    buf.add(SpanName::kBody, t[2], t[3], id, root);
    buf.add(SpanName::kTxnUnlockAll, t[3], t[4], id, root);
  }

  std::int64_t balance_total() const {
    std::int64_t s = 0;
    for (const auto& b : balances_) s += b.v.load(std::memory_order_relaxed);
    return s;
  }
  std::int64_t expected_total() const {
    return static_cast<std::int64_t>(kAccounts) * kInitialBalance;
  }
  std::uint64_t torn_audits() const {
    std::uint64_t n = 0;
    for (const auto& c : counters_) n += c.torn;
    return n;
  }

 private:
  struct alignas(64) Balance {
    std::atomic<std::int64_t> v{0};
  };
  struct alignas(64) Counters {
    std::uint64_t torn = 0;
    std::int64_t sink = 0;
  };

  // One section. The Transaction's construction counts toward the prologue
  // (txn_lv) and its destruction toward the epilogue (txn_unlock_all).
  template <class S>
  void section(int tid, std::size_t i, S& st) {
    st.mark();
    const Op o = ops_[static_cast<std::size_t>(tid)][i];
    {
      st.mark();
      semlock::Transaction txn;
      semlock::Transaction::DynTarget pair[2] = {
          {locks_[o.from].get(), o.audit ? audit_ : move_},
          {locks_[o.to].get(), o.audit ? audit_ : move_}};
      txn.lv_ordered(pair);
      st.mark();
      body(tid, o);
      st.mark();
      txn.unlock_all();
    }
    st.mark();
  }

  // The section body on the accounts, locks held. Account cells are
  // linearizable atomics: concurrent Move holders deposit into one account.
  void body(int tid, Op o) {
    auto& from = balances_[o.from].v;
    auto& to = balances_[o.to].v;
    Counters& c = counters_[static_cast<std::size_t>(tid)];
    if (o.audit) {
      const std::int64_t a1 = from.load(std::memory_order_acquire);
      const std::int64_t b1 = to.load(std::memory_order_acquire);
      const std::int64_t a2 = from.load(std::memory_order_acquire);
      const std::int64_t b2 = to.load(std::memory_order_acquire);
      if (a1 != a2 || b1 != b2) ++c.torn;
      c.sink += a1 + b1;
    } else {
      from.fetch_sub(o.amount, std::memory_order_acq_rel);
      to.fetch_add(o.amount, std::memory_order_acq_rel);
    }
  }

  semlock::ModeTable table_;
  int move_;
  int audit_;
  std::vector<std::unique_ptr<semlock::SemanticLock>> locks_;
  std::vector<Balance> balances_;
  std::vector<std::vector<Op>> ops_;
  std::vector<Counters> counters_;
};

std::unique_ptr<BankHot> set_up(std::uint64_t seed, bool trace_events) {
  auto w = std::make_unique<BankHot>(seed, trace_events);
  run_passes(*w, kThreads, 1);
  return w;
}

void check(const BankHot& w, Result* out) {
  const GateResult g =
      bank_gate(w.balance_total(), w.expected_total(), w.torn_audits());
  if (!g.ok) out->fail(g.what, g.failed_ops);
}

}  // namespace

void run_bank_hot(const Args& args, Result* out) {
  run_closed_loop(
      args, out, kThreads,
      [&args](bool trace_events) { return set_up(args.seed, trace_events); },
      check, 4,
      {SpanName::kTxnLv, SpanName::kTxnUnlockAll});
  if (args.trace) {
    zero_layer(out->metrics, "semlock.resolve");
    zero_layer(out->metrics, "semlock.lock");
    zero_layer(out->metrics, "semlock.unlock");
    zero_layer(out->metrics, "adt.op");
    zero_server_layers(out->metrics);
  }
}

}  // namespace perfbench
