// dumbnet-check: static fabric-state checker and benchmark regression gate.
//
// Fabric mode — loads a serialized topology (and optionally the path-graph files
// hosts would cache) and reports invariant violations without running the
// simulator:
//
//   dumbnet-check fabric.topo [pathgraphs.pg ...] [--max-tag-depth N]
//                 [--json findings.json]
//                 [--pathgraph-s N] [--pathgraph-epsilon N]
//                 [--max-backup-overlap F]
//
// Path graphs are checked against the fabric and Algorithm 1 (Section 4.3):
// loop-free real-edge paths, detour completeness and epsilon-goodness per
// window, subgraph reachability to the destination, and the backup
// link-disjointness score. --json writes all findings machine-readably.
//
// Bench mode — compares a benchmark JSON report (bench/* --json output) against
// a committed baseline and flags metrics that regressed by more than 20%:
//
//   dumbnet-check --bench-json run.json --bench-baseline bench/BENCH_baseline.json
//
// The two modes compose: pass both a topology and --bench-json to gate on both.
// Exit status: 0 clean, 1 findings reported, 2 usage/load error.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/bench_compare.h"
#include "src/analysis/fabric_check.h"

namespace {

int Usage() {
  std::cerr << "usage: dumbnet-check <topology-file> [pathgraph-file ...]\n"
               "                     [--max-tag-depth N]\n"
               "                     [--json <findings.json>]\n"
               "                     [--pathgraph-s N] [--pathgraph-epsilon N]\n"
               "                     [--max-backup-overlap <frac>]\n"
               "       dumbnet-check --bench-json <report.json>\n"
               "                     --bench-baseline <baseline.json>\n"
               "\n"
               "Fabric mode checks a serialized state for: structural validity,\n"
               "unreachable hosts, port conflicts and dangling links, loops and\n"
               "failed links on primary and backup paths, tag stacks exceeding\n"
               "the one-byte header budget, and Algorithm 1's detour windows.\n"
               "Bench mode flags metrics worse than the baseline by more than\n"
               "20%; time-like units regress by growing, rates and ratios by\n"
               "shrinking.\n";
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Returns findings, or nullopt-equivalent via `ok=false` on load errors.
int RunBenchGate(const std::string& report_path, const std::string& baseline_path) {
  std::string report_text;
  std::string baseline_text;
  if (!ReadFile(report_path, &report_text)) {
    std::cerr << "dumbnet-check: cannot read " << report_path << "\n";
    return 2;
  }
  if (!ReadFile(baseline_path, &baseline_text)) {
    std::cerr << "dumbnet-check: cannot read " << baseline_path << "\n";
    return 2;
  }
  auto report = dumbnet::ParseBenchJson(report_text);
  if (!report.ok()) {
    std::cerr << "dumbnet-check: " << report_path << ": " << report.error().message()
              << "\n";
    return 2;
  }
  auto baseline = dumbnet::ParseBenchJson(baseline_text);
  if (!baseline.ok()) {
    std::cerr << "dumbnet-check: " << baseline_path << ": "
              << baseline.error().message() << "\n";
    return 2;
  }
  auto findings = dumbnet::CompareBenchRows(baseline.value(), report.value());
  for (const auto& f : findings) {
    std::cout << f.check << ": " << f.detail << "\n";
  }
  if (findings.empty()) {
    std::cout << "bench gate: " << baseline.value().size() << " baseline metrics ok ("
              << report.value().size() << " reported)\n";
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_path;
  std::vector<std::string> pathgraph_paths;
  std::string bench_json;
  std::string bench_baseline;
  dumbnet::FabricCheckOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-tag-depth") {
      if (i + 1 >= argc) {
        return Usage();
      }
      const long depth = std::strtol(argv[++i], nullptr, 10);
      if (depth < 2) {
        std::cerr << "dumbnet-check: --max-tag-depth must be >= 2\n";
        return 2;
      }
      opts.max_tag_depth = static_cast<size_t>(depth);
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        return Usage();
      }
      opts.json_path = argv[++i];
    } else if (arg == "--pathgraph-s" || arg == "--pathgraph-epsilon") {
      if (i + 1 >= argc) {
        return Usage();
      }
      const long value = std::strtol(argv[++i], nullptr, 10);
      if (value < 0) {
        std::cerr << "dumbnet-check: " << arg << " must be >= 0\n";
        return 2;
      }
      (arg == "--pathgraph-s" ? opts.s : opts.epsilon) = static_cast<uint32_t>(value);
    } else if (arg == "--max-backup-overlap") {
      if (i + 1 >= argc) {
        return Usage();
      }
      char* end = nullptr;
      opts.max_backup_overlap = std::strtod(argv[++i], &end);
      if (end == argv[i] || opts.max_backup_overlap < 0.0) {
        std::cerr << "dumbnet-check: --max-backup-overlap must be a fraction >= 0\n";
        return 2;
      }
    } else if (arg == "--bench-json") {
      if (i + 1 >= argc) {
        return Usage();
      }
      bench_json = argv[++i];
    } else if (arg == "--bench-baseline") {
      if (i + 1 >= argc) {
        return Usage();
      }
      bench_baseline = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "dumbnet-check: unknown option '" << arg << "'\n";
      return Usage();
    } else if (topo_path.empty()) {
      topo_path = arg;
    } else {
      pathgraph_paths.push_back(arg);
    }
  }

  if (!bench_json.empty() || !bench_baseline.empty()) {
    if (bench_json.empty() || bench_baseline.empty()) {
      std::cerr << "dumbnet-check: --bench-json and --bench-baseline go together\n";
      return Usage();
    }
    int bench_rc = RunBenchGate(bench_json, bench_baseline);
    if (bench_rc != 0 || topo_path.empty()) {
      return bench_rc;
    }
    // Fall through to the fabric check; both were requested and bench is clean.
  }
  if (topo_path.empty()) {
    return Usage();
  }
  return dumbnet::RunDumbnetCheck(topo_path, pathgraph_paths, opts, std::cout);
}
