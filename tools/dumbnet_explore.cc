// dumbnet-explore — virtual-time race detector + DPOR schedule explorer.
//
// Re-executes a fabric scenario while permuting same-timestamp event batches,
// using the footprint conflicts the handlers declare (DN_FP_*) as the DPOR
// generator set. Every terminal state is digested (controller database + every
// host's topology mirror + injected scenario state); a reordering that changes
// the digest or the invariant-audit outcome is a confirmed ordering race, and
// the minimized schedule that exposes it is written out for replay.
//
// Usage:
//   dumbnet-explore [--scenario discovery|failover|gossip] [--schedules N]
//                   [--seed S] [--inject-race] [--emit-schedule FILE]
//                   [--replay-schedule FILE] [--json FILE] [--no-minimize]
//
// Exit codes: 0 no races and no unannotated hazards, 1 findings (divergence
// or unannotated hazards), 2 usage / IO error.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/explore.h"
#include "src/core/fabric.h"
#include "src/sim/footprint.h"
#include "src/topo/generators.h"
#include "src/topo/serialize.h"
#include "src/util/json.h"

namespace {

using dumbnet::JsonEscape;
using dumbnet::explore::ExploreConfig;
using dumbnet::explore::ExploreReport;
using dumbnet::explore::HazardCollector;
using dumbnet::explore::MakePermuter;
using dumbnet::explore::ParseSchedule;
using dumbnet::explore::RunOutcome;
using dumbnet::explore::Schedule;
using dumbnet::explore::SerializeSchedule;

struct Options {
  std::string scenario = "discovery";
  uint64_t schedules = 64;
  uint64_t seed = 7;
  bool inject_race = false;
  bool minimize = true;
  std::string emit_schedule;
  std::string replay_schedule;
  std::string json_path;
};

int Usage() {
  std::cerr
      << "usage: dumbnet-explore [--scenario discovery|failover|gossip]\n"
      << "                       [--schedules N] [--seed S] [--inject-race]\n"
      << "                       [--emit-schedule FILE] [--replay-schedule FILE]\n"
      << "                       [--json FILE] [--no-minimize]\n"
      << "exit codes: 0 clean, 1 findings, 2 usage/io error\n";
  return 2;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xCBF29CE484222325ULL) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Runtime footprint opt-in for the duration of one run, exception-free RAII.
struct FootprintRun {
  FootprintRun() { dumbnet::footprint::SetEnabled(true); }
  ~FootprintRun() { dumbnet::footprint::SetEnabled(false); }
};

// One scenario execution under one schedule. Builds the whole fabric from
// scratch so runs are independent and bit-for-bit deterministic per schedule.
RunOutcome RunScenario(const Options& opts, const Schedule& schedule) {
  RunOutcome out;
  auto testbed = dumbnet::MakePaperTestbed();
  if (!testbed.ok()) {
    out.violations.push_back("testbed: " + testbed.error().ToString());
    return out;
  }
  const uint32_t spine0 = testbed.value().spines[0];
  const uint32_t spine1 = testbed.value().spines[1];
  dumbnet::SimulatedFabric fabric(std::move(testbed.value().topo));
  dumbnet::Simulator& sim = fabric.sim();
  sim.SetBatchPermuter(MakePermuter(schedule));
  HazardCollector collector(&sim);
  FootprintRun fp_on;

  dumbnet::ControllerConfig config;
  config.rng_seed = opts.seed;

  uint64_t race_word = 1;  // --inject-race shared cell, folded into the digest
  if (opts.scenario == "discovery") {
    dumbnet::DiscoveryConfig discovery;
    discovery.max_ports = 16;
    if (!fabric.BringUp(25, config, discovery)) {
      out.violations.push_back("bring-up never completed");
    }
    fabric.EnableAuditing();
    fabric.Run();
  } else {
    // failover / gossip both start from an adopted topology with warm routes.
    fabric.BringUpAdopted(25, config);
    fabric.EnableAuditing();
    for (uint32_t h = 0; h < 8; ++h) {
      (void)fabric.agent(h).Send(fabric.agent(h + 10).mac(), h, dumbnet::DataPayload{});
    }
    sim.Run();

    dumbnet::LinkIndex l0 = fabric.topo().LinkAtPort(spine0, 1);
    dumbnet::LinkIndex l1 = fabric.topo().LinkAtPort(spine1, 1);
    // Both spine uplinks die at the same virtual instant: the two detection
    // events (and everything downstream — alarms, gossip floods, patches)
    // land in shared same-timestamp batches.
    fabric.topo().SetLinkUp(l0, false);
    fabric.topo().SetLinkUp(l1, false);
    for (uint32_t h = 0; h < 8; ++h) {
      (void)fabric.agent(h).Send(fabric.agent(h + 10).mac(), 100 + h,
                                 dumbnet::DataPayload{});
    }
    sim.Run();
    if (opts.scenario == "gossip") {
      // Concurrent flap: both links revive together, then die together again,
      // exercising the LWW observation merge from both directions.
      fabric.topo().SetLinkUp(l0, true);
      fabric.topo().SetLinkUp(l1, true);
      sim.Run();
      fabric.topo().SetLinkUp(l0, false);
      fabric.topo().SetLinkUp(l1, false);
      sim.Run();
    }
    fabric.topo().SetLinkUp(l0, true);
    fabric.topo().SetLinkUp(l1, true);
    sim.Run();
  }

  if (opts.inject_race) {
    // Deliberate ordering race: two same-instant writes to one scenario cell
    // that do not commute. The detector must flag them and the explorer must
    // confirm divergence with a one-batch counterexample schedule.
    const dumbnet::TimeNs at = sim.Now() + dumbnet::Ms(1);
    sim.ScheduleAt(at, [&race_word] {
      DN_FP_SCOPE("inject.scale", 0xA);
      DN_FP_WRITE(kScenario, 1);
      race_word = race_word * 3 + 1;
    });
    sim.ScheduleAt(at, [&race_word] {
      DN_FP_SCOPE("inject.add", 0xB);
      DN_FP_WRITE(kScenario, 1);
      race_word += 7;
    });
    sim.Run();
  }

  // Terminal digest: controller database plus every host's topology mirror.
  // Data-plane transients (in-flight drops during failures) are deliberately
  // excluded — the convergence claim is about control-plane state.
  uint64_t h = Fnv1a(dumbnet::SerializeTopology(fabric.controller().db().mirror()));
  for (uint32_t host = 0; host < static_cast<uint32_t>(fabric.host_count()); ++host) {
    h = Fnv1a(dumbnet::SerializeTopology(fabric.agent(host).topo_cache().db().mirror()),
              h);
  }
  std::ostringstream extra;
  extra << race_word;
  out.state_hash = Fnv1a(extra.str(), h);
  out.events = sim.executed_events();
  out.batches = sim.batches_formed();
  if (fabric.auditor() != nullptr) {
    for (const auto& v : fabric.auditor()->violations()) {
      out.violations.push_back(v.invariant + ": " + v.detail);
    }
  }
  out.conflicts = collector.TakeConflicts();
  out.hazard_lines = collector.TakeLines();
  return out;
}

void PrintOutcome(const char* tag, const RunOutcome& out) {
  std::cout << tag << ": hash 0x" << std::hex << out.state_hash << std::dec << ", "
            << out.events << " events, " << out.batches << " batches, "
            << out.conflicts.size() << " unannotated hazard"
            << (out.conflicts.size() == 1 ? "" : "s") << ", " << out.violations.size()
            << " violation" << (out.violations.size() == 1 ? "" : "s") << "\n";
  for (const std::string& line : out.hazard_lines) {
    std::cout << "  hazard: " << line << "\n";
  }
  for (const std::string& v : out.violations) {
    std::cout << "  violation: " << v << "\n";
  }
}

bool WriteJson(const std::string& path, const Options& opts, const ExploreReport& report) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\n  \"scenario\": \"" << opts.scenario << "\",\n"
      << "  \"schedules_run\": " << report.schedules_run << ",\n"
      << "  \"distinct_conflicts\": " << report.distinct_conflicts << ",\n"
      << "  \"budget_exhausted\": " << (report.budget_exhausted ? "true" : "false")
      << ",\n"
      << "  \"base_hash\": \"0x" << std::hex << report.base.state_hash << std::dec
      << "\",\n"
      << "  \"diverged\": " << (report.diverged ? "true" : "false") << ",\n";
  out << "  \"hazards\": [";
  for (size_t i = 0; i < report.base.hazard_lines.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << JsonEscape(report.base.hazard_lines[i])
        << "\"";
  }
  out << "],\n";
  out << "  \"violations\": [";
  for (size_t i = 0; i < report.base.violations.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << JsonEscape(report.base.violations[i]) << "\"";
  }
  out << "]";
  if (report.diverged) {
    out << ",\n  \"divergent_hash\": \"0x" << std::hex << report.divergent_hash
        << std::dec << "\",\n"
        << "  \"counterexample\": \"" << JsonEscape(SerializeSchedule(report.counterexample))
        << "\"";
  }
  out << "\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "dumbnet-explore: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      const char* v = need_value("--scenario");
      if (v == nullptr) {
        return Usage();
      }
      opts.scenario = v;
    } else if (arg == "--schedules") {
      const char* v = need_value("--schedules");
      if (v == nullptr) {
        return Usage();
      }
      opts.schedules = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed") {
      const char* v = need_value("--seed");
      if (v == nullptr) {
        return Usage();
      }
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--inject-race") {
      opts.inject_race = true;
    } else if (arg == "--no-minimize") {
      opts.minimize = false;
    } else if (arg == "--emit-schedule") {
      const char* v = need_value("--emit-schedule");
      if (v == nullptr) {
        return Usage();
      }
      opts.emit_schedule = v;
    } else if (arg == "--replay-schedule") {
      const char* v = need_value("--replay-schedule");
      if (v == nullptr) {
        return Usage();
      }
      opts.replay_schedule = v;
    } else if (arg == "--json") {
      const char* v = need_value("--json");
      if (v == nullptr) {
        return Usage();
      }
      opts.json_path = v;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "dumbnet-explore: unknown argument " << arg << "\n";
      return Usage();
    }
  }
  if (opts.scenario != "discovery" && opts.scenario != "failover" &&
      opts.scenario != "gossip") {
    std::cerr << "dumbnet-explore: unknown scenario " << opts.scenario << "\n";
    return Usage();
  }
  if (opts.schedules == 0) {
    std::cerr << "dumbnet-explore: --schedules must be >= 1\n";
    return Usage();
  }

  auto run = [&opts](const Schedule& schedule) { return RunScenario(opts, schedule); };

  // Replay mode: one canonical run + one run under the given schedule.
  if (!opts.replay_schedule.empty()) {
    std::ifstream in(opts.replay_schedule);
    if (!in) {
      std::cerr << "dumbnet-explore: cannot read " << opts.replay_schedule << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto parsed = ParseSchedule(buf.str());
    if (!parsed.ok()) {
      std::cerr << "dumbnet-explore: " << parsed.error().ToString() << "\n";
      return 2;
    }
    RunOutcome base = run(Schedule{});
    RunOutcome replayed = run(parsed.value());
    PrintOutcome("canonical", base);
    PrintOutcome("replayed", replayed);
    const bool diverged = replayed.state_hash != base.state_hash ||
                          replayed.violations != base.violations;
    std::cout << (diverged ? "REPLAY DIVERGED: ordering race reproduced\n"
                           : "replay converged with the canonical run\n");
    return diverged || !base.conflicts.empty() ? 1 : 0;
  }

  ExploreConfig config;
  config.max_schedules = opts.schedules;
  config.minimize = opts.minimize;
  ExploreReport report = dumbnet::explore::Explore(run, config);

  PrintOutcome("base", report.base);
  std::cout << "explored " << report.schedules_run << " schedule"
            << (report.schedules_run == 1 ? "" : "s") << " (budget " << opts.schedules
            << (report.budget_exhausted ? ", exhausted" : "") << "), "
            << report.distinct_conflicts << " distinct conflicting pair"
            << (report.distinct_conflicts == 1 ? "" : "s") << "\n";

  if (report.diverged) {
    std::cout << "ORDERING RACE: divergent hash 0x" << std::hex << report.divergent_hash
              << std::dec << "\nminimized counterexample ("
              << report.counterexample.choices.size() << " batch choice"
              << (report.counterexample.choices.size() == 1 ? "" : "s") << "):\n"
              << SerializeSchedule(report.counterexample);
    for (const std::string& v : report.divergent_violations) {
      std::cout << "  divergent violation: " << v << "\n";
    }
  } else if (report.base.conflicts.empty()) {
    std::cout << "no unannotated hazards, no divergence\n";
  } else {
    std::cout << "no divergence found within budget; the hazards above remain "
                 "unannotated (fix the race or annotate DN_FP_COMMUTES with a "
                 "reason)\n";
  }

  if (!opts.emit_schedule.empty() && report.diverged) {
    std::ofstream out(opts.emit_schedule);
    if (!out) {
      std::cerr << "dumbnet-explore: cannot write " << opts.emit_schedule << "\n";
      return 2;
    }
    out << SerializeSchedule(report.counterexample);
  }
  if (!opts.json_path.empty() && !WriteJson(opts.json_path, opts, report)) {
    std::cerr << "dumbnet-explore: cannot write " << opts.json_path << "\n";
    return 2;
  }

  return report.diverged || !report.base.conflicts.empty() ? 1 : 0;
}
