// dumbnet-check: static fabric-state checker. Loads a serialized topology (and
// optionally the path-graph files hosts would cache) and reports invariant
// violations without running the simulator:
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
// Exit status: 0 clean, 1 findings reported, 2 usage/load error.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/fabric_check.h"

namespace {

int Usage() {
  std::cerr << "usage: dumbnet-check <topology-file> [pathgraph-file ...]\n"
               "                     [--max-tag-depth N]\n"
               "                     [--json <findings.json>]\n"
               "                     [--pathgraph-s N] [--pathgraph-epsilon N]\n"
               "                     [--max-backup-overlap <frac>]\n"
               "\n"
               "Checks a serialized state for: structural validity,\n"
               "unreachable hosts, port conflicts and dangling links, loops and\n"
               "failed links on primary and backup paths, tag stacks exceeding\n"
               "the one-byte header budget, and Algorithm 1's detour windows.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_path;
  std::vector<std::string> pathgraph_paths;
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

  if (topo_path.empty()) {
    return Usage();
  }
  return dumbnet::RunDumbnetCheck(topo_path, pathgraph_paths, opts, std::cout);
}
