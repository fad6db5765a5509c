// perfbench: runs one workload for a fixed time and prints its
// metrics, one per line with unit and sample count, then a single JSON
// result line.
//
//   perfbench --workload kv-zipf|bank-hot|server-open --seed N
//                    --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status is 0 only when every correctness gate passed.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/attribution.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kv-zipf|bank-hot|server-open --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    std::uint64_t n = 0;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_u64(val, &n)) usage("bad --seed");
      a.seed = n;
    } else if (key == "--seconds") {
      if (!parse_u64(val, &n) || n < 1 || n > 600) usage("bad --seconds");
      a.seconds = static_cast<double>(n);
    } else if (key == "--trace") {
      if (!parse_u64(val, &n) || n > 1) usage("bad --trace");
      a.trace = n == 1;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  // Attribution classifies only in the traced run's attribution window.
  semlock::obs::set_attribution_enabled(false);

  perfbench::Result res;
  if (args.workload == "kv-zipf") {
    perfbench::run_kv_zipf(args, &res);
  } else if (args.workload == "bank-hot") {
    perfbench::run_bank_hot(args, &res);
  } else if (args.workload == "server-open") {
    perfbench::run_server_open(args, &res);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  for (const auto& g : res.gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", g.c_str());
  }
  std::string json = "{\"correct\": ";
  json += res.gate_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : res.metrics.values()) {
    std::printf("%-40s %16.6g %-6s samples=%llu\n", name.c_str(), v.value,
                v.unit.c_str(), static_cast<unsigned long long>(v.samples));
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + perfbench::json_number(v.value) +
            ", \"unit\": \"" + v.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.gate_failures.empty() ? 0 : 1;
}
