// dumbnet-fuzz — adversarial churn property fuzzer.
//
// Each seed deterministically derives a topology (leaf-spine / fat-tree /
// jellyfish), an adversarial churn schedule (flapping links, gray failures, a
// correlated switch outage; src/chaos), and a notification-delay pattern, then
// runs the full fabric through it and checks every property we know how to
// state: the invariant catalog (audited mode), footprint hazards, end-of-run
// cache convergence against ground truth, a quiescent fresh-links audit of the
// controller database, and path-graph semantics on a sample of recomputed
// graphs. Churn metrics (packets blackholed, failover-latency CDF, staleness
// windows) are recorded through the telemetry registry (--metrics-json).
//
// Any failing seed reproduces bit-identically from --replay-seed, dumps the
// flight-recorder tail, and emits a minimized schedule file compatible with
// dumbnet-explore's schedule v1 format (--emit-schedule).
//
// Usage:
//   dumbnet-fuzz [--seeds N] [--seed-base B] [--replay-seed S] [--inject-stale]
//                [--churn-during-bringup] [--horizon-ms M] [--metrics-json FILE]
//                [--json FILE] [--emit-schedule FILE] [--trace FILE]
//                [--no-minimize]
//
// --churn-during-bringup starts the churn schedule while the controller's real
// probing discovery is still in flight (instead of against an adopted,
// already-converged fabric): probes time out on downed links, bring-up port-up
// alarms interleave with flap alarms, and mid-discovery link-up events trigger
// reprobes while the initial completion callback is still pending. The run
// additionally requires that bring-up itself completed — controller ready and
// every host bootstrapped — once the schedule's final restore has settled.
//
// Exit codes: 0 all seeds clean, 1 findings, 2 usage / IO error.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/explore.h"
#include "src/analysis/fabric_check.h"
#include "src/analysis/invariants.h"
#include "src/chaos/chaos.h"
#include "src/core/fabric.h"
#include "src/sim/footprint.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/topo/generators.h"
#include "src/topo/serialize.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace {

using dumbnet::JsonEscape;
using dumbnet::LinkEventPayload;
using dumbnet::LinkIndex;
using dumbnet::Rng;
using dumbnet::SimulatedFabric;
using dumbnet::SplitMix64;
using dumbnet::TimeNs;
using dumbnet::Topology;

struct Options {
  uint64_t seeds = 25;
  uint64_t seed_base = 1;
  uint64_t replay_seed = 0;
  bool replay_mode = false;
  bool inject_stale = false;
  bool churn_during_bringup = false;
  bool minimize = true;
  uint64_t horizon_ms = 60;
  std::string metrics_json;
  std::string json_path;
  std::string emit_schedule;
  std::string trace_path;
};

int Usage() {
  std::cerr
      << "usage: dumbnet-fuzz [--seeds N] [--seed-base B] [--replay-seed S]\n"
      << "                    [--inject-stale] [--churn-during-bringup]\n"
      << "                    [--horizon-ms M] [--metrics-json FILE] [--json FILE]\n"
      << "                    [--emit-schedule FILE] [--trace FILE] [--no-minimize]\n"
      << "exit codes: 0 clean, 1 findings, 2 usage/io error\n";
  return 2;
}

// Parses a whole decimal count. Empty input, a sign, any non-digit and values
// beyond 64 bits are rejected, so "2e2" is an error rather than a silent 2.
bool ParseCount(const char* text, uint64_t* out) {
  if (*text == '\0') {
    return false;
  }
  uint64_t v = 0;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(*c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xCBF29CE484222325ULL) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct FootprintRun {
  FootprintRun() { dumbnet::footprint::SetEnabled(true); }
  ~FootprintRun() { dumbnet::footprint::SetEnabled(false); }
};

// Seed -> topology. Mixes the three evaluation shapes; jellyfish draws are
// retried with perturbed wiring seeds until connected (fallback: leaf-spine).
Topology TopologyForSeed(uint64_t seed) {
  Rng rng(seed ^ 0x70B07070B07070ULL);
  switch (seed % 3) {
    case 0: {
      dumbnet::LeafSpineConfig cfg;
      cfg.num_spine = 2 + static_cast<uint32_t>(rng.UniformInt(3));
      cfg.num_leaf = 4 + static_cast<uint32_t>(rng.UniformInt(4));
      cfg.hosts_per_leaf = 3;
      auto t = dumbnet::MakeLeafSpine(cfg);
      if (t.ok()) {
        return std::move(t.value().topo);
      }
      break;
    }
    case 1: {
      dumbnet::FatTreeConfig cfg;
      cfg.k = 4;
      auto t = dumbnet::MakeFatTree(cfg);
      if (t.ok()) {
        return std::move(t.value().topo);
      }
      break;
    }
    default: {
      dumbnet::JellyfishConfig cfg;
      cfg.num_switches = 12 + static_cast<uint32_t>(rng.UniformInt(9));
      cfg.switch_ports = 16;
      cfg.network_degree = 4;
      cfg.hosts_per_switch = 2;
      for (uint32_t attempt = 0; attempt < 5; ++attempt) {
        cfg.seed = seed + attempt * 0x9E3779B9ULL;
        auto t = dumbnet::MakeJellyfish(cfg);
        if (t.ok() && t.value().topo.IsConnected()) {
          return std::move(t.value().topo);
        }
      }
      break;
    }
  }
  auto fallback = dumbnet::MakeLeafSpine(dumbnet::LeafSpineConfig{});
  return std::move(fallback.value().topo);
}

dumbnet::chaos::ChaosConfig ChaosConfigForSeed(uint64_t seed, uint64_t horizon_ms) {
  Rng rng(seed ^ 0xC4A05C4A05C4A05ULL);
  dumbnet::chaos::ChaosConfig cfg;
  cfg.seed = seed;
  cfg.horizon = dumbnet::Ms(static_cast<int64_t>(horizon_ms));
  cfg.flap.links = 1 + static_cast<uint32_t>(rng.UniformInt(3));
  cfg.gray.links = 1 + static_cast<uint32_t>(rng.UniformInt(2));
  cfg.outage.enabled = (rng.Next64() & 1) != 0;
  return cfg;
}

struct SeedResult {
  uint64_t digest = 0;
  uint64_t events = 0;
  TimeNs end_time = 0;
  std::vector<std::string> failures;
  dumbnet::chaos::ChaosSchedule schedule;  // the schedule that actually ran
};

// One full deterministic run of `seed`. When `override_sched` is set it runs
// instead of the generated schedule (replaying minimization candidates).
SeedResult RunSeed(uint64_t seed, const Options& opts,
                   const dumbnet::chaos::ChaosSchedule* override_sched) {
  SeedResult out;
  Topology topo = TopologyForSeed(seed);
  out.schedule = override_sched != nullptr
                     ? *override_sched
                     : dumbnet::chaos::GenerateSchedule(
                           topo, ChaosConfigForSeed(seed, opts.horizon_ms));
  const std::vector<LinkIndex> touched = out.schedule.TouchedLinks();
  if (touched.empty() && override_sched == nullptr) {
    out.failures.push_back("generator produced an empty schedule");
    return out;
  }

  // --inject-stale fixture: at the controller host, every "up" notification
  // for the victim link is eaten — a deterministic ghost-topology bug the
  // convergence check must catch.
  uint64_t stale_uid_a = 0, stale_uid_b = 0;
  dumbnet::PortNum stale_port_a = 0, stale_port_b = 0;
  if (opts.inject_stale && !touched.empty()) {
    const dumbnet::Link& victim = topo.link_at(touched.front());
    stale_uid_a = topo.switch_at(victim.a.node.index).uid;
    stale_port_a = victim.a.port;
    stale_uid_b = topo.switch_at(victim.b.node.index).uid;
    stale_port_b = victim.b.port;
  }

  dumbnet::HostAgentConfig agent_config;
  agent_config.rng_seed = seed ^ 0xA6E7A6E7A6E7ULL;
  dumbnet::NetworkConfig net_config;
  net_config.gray_seed = seed ^ 0xD0BBE701ULL;
  SimulatedFabric fabric(std::move(topo), agent_config, dumbnet::DumbSwitchConfig(),
                         net_config);
  FootprintRun fp_on;
  dumbnet::explore::HazardCollector collector(&fabric.sim());

  // Notification interceptor: seeded delays (reordering stress) on every host;
  // pure function of (seed, mac, event) so replays are bit-identical. Drops are
  // reserved for the --inject-stale fixture — a random drop could legitimately
  // lose the last copy of an event and break convergence by design.
  const uint64_t delay_seed = seed * 0x2545F4914F6CDD1DULL;
  for (uint32_t h = 0; h < static_cast<uint32_t>(fabric.host_count()); ++h) {
    dumbnet::HostAgent& agent = fabric.agent(h);
    const uint64_t mac = agent.mac();
    const bool is_ctrl = (h == 0);
    agent.SetNotificationInterceptor(
        [delay_seed, mac, is_ctrl, stale_uid_a, stale_port_a, stale_uid_b, stale_port_b](
            const LinkEventPayload& ev, bool from_fabric) -> TimeNs {
          if (is_ctrl && ev.up &&
              ((ev.switch_uid == stale_uid_a && ev.port == stale_port_a) ||
               (ev.switch_uid == stale_uid_b && ev.port == stale_port_b))) {
            return dumbnet::HostAgent::kDropNotification;
          }
          SplitMix64 mix(delay_seed ^ mac ^ ev.event_id ^
                         (from_fabric ? 0x9E3779B97F4A7C15ULL : 0));
          const uint64_t d = mix.Next();
          if (d % 4 == 0) {
            return static_cast<TimeNs>(1 + d % 200000);  // up to 200 us
          }
          return 0;
        });
    // Failover-latency CDF: virtual time from the event's origin to this
    // host learning about it, for down events (the failover-relevant ones).
    dumbnet::HostAgent* agent_ptr = &agent;
    agent.SetLinkEventHook([agent_ptr](const LinkEventPayload& ev, bool /*from_fabric*/) {
      if (!ev.up) {
        DN_HISTOGRAM_RECORD("chaos.failover_latency_ns",
                            static_cast<double>(agent_ptr->sim().Now() - ev.origin_time));
      }
    });
  }

  dumbnet::ControllerConfig ctrl_config;
  ctrl_config.rng_seed = seed;
  bool controller_ready = false;
  if (opts.churn_during_bringup) {
    // Churn races real probing discovery: Start() is issued but the fabric is
    // NOT run to readiness first — the schedule below interleaves with the
    // probe/attach traffic. The periodic db-vs-truth audit is structural, so a
    // half-discovered database is legal; completeness is asserted at the end.
    fabric.AddController(0, ctrl_config);
    fabric.EnableAuditing(2048);
    fabric.controller().Start([&controller_ready] { controller_ready = true; });
  } else {
    fabric.BringUpAdopted(0, ctrl_config);
    fabric.EnableAuditing(2048);
    controller_ready = true;
  }

  const uint64_t blackholed_before =
      fabric.net().stats().dropped_link_down + fabric.net().stats().dropped_gray;

  // Background traffic at every action boundary plus periodic staleness probes.
  Rng traffic = Rng(seed).Fork(2);
  uint64_t next_flow = 1;
  uint64_t stale_samples = 0;
  dumbnet::chaos::RunHooks hooks;
  hooks.on_boundary = [&](TimeNs) {
    const uint32_t hosts = static_cast<uint32_t>(fabric.host_count());
    if (hosts < 2) {
      return;
    }
    for (int i = 0; i < 2; ++i) {
      const uint32_t src = static_cast<uint32_t>(traffic.UniformInt(hosts));
      uint32_t dst = static_cast<uint32_t>(traffic.UniformInt(hosts - 1));
      if (dst >= src) {
        ++dst;
      }
      (void)fabric.agent(src).Send(fabric.agent(dst).mac(), next_flow++,
                                   dumbnet::DataPayload{});
    }
  };
  hooks.sample_period = dumbnet::Ms(1);
  hooks.on_sample = [&](TimeNs) {
    const uint32_t stale = dumbnet::chaos::CountStaleEntries(fabric, touched);
    DN_HISTOGRAM_RECORD("chaos.stale_entries", static_cast<double>(stale));
    if (stale > 0) {
      ++stale_samples;
    }
  };

  dumbnet::chaos::RunSchedule(fabric, out.schedule, hooks);

  // Staleness window: total sampled virtual time any cache disagreed with
  // ground truth about a churned link.
  DN_COUNTER_INC_N("chaos.staleness_ns",
                   stale_samples * static_cast<uint64_t>(hooks.sample_period));
  const uint64_t blackholed =
      fabric.net().stats().dropped_link_down + fabric.net().stats().dropped_gray -
      blackholed_before;
  DN_COUNTER_INC_N("chaos.blackholed", blackholed);
  DN_COUNTER_INC("chaos.runs");

  // --- Property checks, all at quiescence --------------------------------------
  // Under --churn-during-bringup the schedule's final restore leaves a fully
  // healthy fabric, so no matter how churn mangled discovery, bring-up must
  // still have completed end to end by now.
  if (opts.churn_during_bringup) {
    if (!controller_ready) {
      out.failures.push_back("bringup: controller never became ready under churn");
    }
    for (uint32_t host = 0; host < static_cast<uint32_t>(fabric.host_count()); ++host) {
      if (!fabric.agent(host).bootstrapped()) {
        out.failures.push_back("bringup: host " + std::to_string(host) +
                               " never bootstrapped under churn");
      }
    }
  }
  if (fabric.auditor() != nullptr) {
    fabric.auditor()->RunAll();
    for (const auto& v : fabric.auditor()->violations()) {
      out.failures.push_back("invariant " + v.invariant + ": " + v.detail);
    }
  }
  for (const std::string& line : collector.TakeLines()) {
    out.failures.push_back("hazard: " + line);
  }
  for (const std::string& line : dumbnet::chaos::CheckConvergence(fabric, touched)) {
    out.failures.push_back("convergence: " + line);
  }
  auto fresh = dumbnet::AuditTopoDbAgainstTruth(fabric.controller().db(), fabric.topo(),
                                                /*require_fresh_links=*/true);
  if (!fresh.ok()) {
    out.failures.push_back("ghost-topology: " + fresh.error().ToString());
  }

  // Path-graph semantics on a recomputed sample (src host 1 -> a few peers).
  if (fabric.host_count() >= 3) {
    std::vector<uint64_t> dsts;
    for (uint32_t h = 2; h < static_cast<uint32_t>(fabric.host_count()) && dsts.size() < 4;
         ++h) {
      dsts.push_back(fabric.agent(h).mac());
    }
    auto graphs = fabric.controller().PrecomputePathGraphs(fabric.agent(1).mac(), dsts);
    if (!graphs.ok()) {
      out.failures.push_back("pathgraph: " + graphs.error().ToString());
    } else {
      for (const auto& f : dumbnet::CheckPathGraphs(fabric.topo(), graphs.value())) {
        out.failures.push_back("pathgraph " + f.check + ": " + f.detail);
      }
    }
  }

  // Converged control-plane digest (the bit-identical replay witness).
  uint64_t h = Fnv1a(dumbnet::SerializeTopology(fabric.controller().db().mirror()));
  for (uint32_t host = 0; host < static_cast<uint32_t>(fabric.host_count()); ++host) {
    h = Fnv1a(dumbnet::SerializeTopology(fabric.agent(host).topo_cache().db().mirror()),
              h);
  }
  out.digest = h;
  out.events = fabric.executed_events();
  out.end_time = fabric.Now();
  return out;
}

void ReportFailingSeed(uint64_t seed, const SeedResult& result, const Options& opts) {
  std::cout << "FAIL seed " << seed << " (" << result.failures.size() << " finding"
            << (result.failures.size() == 1 ? "" : "s") << ", digest 0x" << std::hex
            << result.digest << std::dec << ")\n";
  for (const std::string& f : result.failures) {
    std::cout << "  " << f << "\n";
  }
  std::cout << "  reproduce: dumbnet-fuzz --replay-seed " << seed
            << (opts.inject_stale ? " --inject-stale" : "")
            << (opts.churn_during_bringup ? " --churn-during-bringup" : "")
            << " --horizon-ms " << opts.horizon_ms << "\n";

  dumbnet::chaos::ChaosSchedule minimized = result.schedule;
  if (opts.minimize) {
    auto still_fails = [&](const dumbnet::chaos::ChaosSchedule& cand) {
      return !RunSeed(seed, opts, &cand).failures.empty();
    };
    minimized = dumbnet::chaos::MinimizeSchedule(result.schedule, still_fails,
                                                 /*max_probes=*/48);
    std::cout << "  minimized schedule: " << minimized.actions.size() << " of "
              << result.schedule.actions.size() << " actions still fail\n";
  }
  if (!opts.emit_schedule.empty()) {
    std::ofstream sched_out(opts.emit_schedule);
    if (sched_out) {
      sched_out << dumbnet::chaos::SerializeSchedule(minimized,
                                                     "seed " + std::to_string(seed));
      std::cout << "  schedule written to " << opts.emit_schedule << "\n";
    } else {
      std::cerr << "dumbnet-fuzz: cannot write " << opts.emit_schedule << "\n";
    }
  }
  dumbnet::telemetry::FlightRecorder::Global().DumpOnFailure("dumbnet-fuzz failing seed",
                                                             64);
}

bool WriteJsonSummary(const std::string& path, uint64_t seeds_run,
                      const std::vector<uint64_t>& failing,
                      const std::vector<std::string>& first_failure_lines) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\n  \"seeds_run\": " << seeds_run << ",\n  \"failing_seeds\": [";
  for (size_t i = 0; i < failing.size(); ++i) {
    out << (i > 0 ? ", " : "") << failing[i];
  }
  out << "],\n  \"first_failure\": [";
  for (size_t i = 0; i < first_failure_lines.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << JsonEscape(first_failure_lines[i]) << "\"";
  }
  out << "]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "dumbnet-fuzz: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    auto need_count = [&](const char* flag, uint64_t* out) {
      const char* v = need_value(flag);
      if (v == nullptr) {
        return false;
      }
      if (!ParseCount(v, out)) {
        std::cerr << "dumbnet-fuzz: " << flag << " needs a decimal count, got '" << v
                  << "'\n";
        return false;
      }
      return true;
    };
    if (arg == "--seeds") {
      if (!need_count("--seeds", &opts.seeds)) {
        return Usage();
      }
    } else if (arg == "--seed-base") {
      if (!need_count("--seed-base", &opts.seed_base)) {
        return Usage();
      }
    } else if (arg == "--replay-seed") {
      if (!need_count("--replay-seed", &opts.replay_seed)) {
        return Usage();
      }
      opts.replay_mode = true;
    } else if (arg == "--inject-stale") {
      opts.inject_stale = true;
    } else if (arg == "--churn-during-bringup") {
      opts.churn_during_bringup = true;
    } else if (arg == "--no-minimize") {
      opts.minimize = false;
    } else if (arg == "--horizon-ms") {
      if (!need_count("--horizon-ms", &opts.horizon_ms)) {
        return Usage();
      }
    } else if (arg == "--metrics-json") {
      const char* v = need_value("--metrics-json");
      if (v == nullptr) {
        return Usage();
      }
      opts.metrics_json = v;
    } else if (arg == "--json") {
      const char* v = need_value("--json");
      if (v == nullptr) {
        return Usage();
      }
      opts.json_path = v;
    } else if (arg == "--emit-schedule") {
      const char* v = need_value("--emit-schedule");
      if (v == nullptr) {
        return Usage();
      }
      opts.emit_schedule = v;
    } else if (arg == "--trace") {
      const char* v = need_value("--trace");
      if (v == nullptr) {
        return Usage();
      }
      opts.trace_path = v;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "dumbnet-fuzz: unknown argument " << arg << "\n";
      return Usage();
    }
  }
  if (opts.seeds == 0 || opts.horizon_ms < 20) {
    std::cerr << "dumbnet-fuzz: --seeds must be >= 1 and --horizon-ms >= 20\n";
    return Usage();
  }

  dumbnet::telemetry::SetEnabled(true);
  // Hosts legitimately give up on paths mid-churn; per-flow warnings would
  // swamp CI logs. Findings are reported through the property checks instead.
  dumbnet::SetLogLevel(dumbnet::LogLevel::kError);

  int exit_code = 0;
  uint64_t seeds_run = 0;
  std::vector<uint64_t> failing_seeds;
  std::vector<std::string> first_failure;

  if (opts.replay_mode) {
    // Replay: the same seed twice must be bit-identical — digest, event count,
    // and final virtual time all agree — and findings are reported as usual.
    SeedResult first = RunSeed(opts.replay_seed, opts, nullptr);
    SeedResult second = RunSeed(opts.replay_seed, opts, nullptr);
    seeds_run = 2;
    std::cout << "replay seed " << opts.replay_seed << ": digest 0x" << std::hex
              << first.digest << std::dec << ", " << first.events << " events, end "
              << first.end_time << " ns\n";
    if (first.digest != second.digest || first.events != second.events ||
        first.end_time != second.end_time) {
      std::cout << "REPLAY NOT REPRODUCIBLE: second run digest 0x" << std::hex
                << second.digest << std::dec << ", " << second.events << " events, end "
                << second.end_time << " ns\n";
      exit_code = 1;
    } else {
      std::cout << "replay bit-identical across both runs\n";
    }
    if (!first.failures.empty()) {
      failing_seeds.push_back(opts.replay_seed);
      first_failure = first.failures;
      ReportFailingSeed(opts.replay_seed, first, opts);
      exit_code = 1;
    }
  } else {
    for (uint64_t s = 0; s < opts.seeds; ++s) {
      const uint64_t seed = opts.seed_base + s;
      SeedResult result = RunSeed(seed, opts, nullptr);
      ++seeds_run;
      if (!result.failures.empty()) {
        failing_seeds.push_back(seed);
        if (first_failure.empty()) {
          first_failure = result.failures;
        }
        ReportFailingSeed(seed, result, opts);
        exit_code = 1;
        break;  // first failing seed stops the run; artifacts describe it
      }
    }
    if (exit_code == 0) {
      std::cout << "fuzz: " << seeds_run << " seed" << (seeds_run == 1 ? "" : "s")
                << " clean (base " << opts.seed_base << ", horizon " << opts.horizon_ms
                << " ms)\n";
    }
  }

  if (!opts.metrics_json.empty() &&
      !dumbnet::telemetry::MetricsRegistry::Global().WriteJsonFile(opts.metrics_json)) {
    std::cerr << "dumbnet-fuzz: cannot write " << opts.metrics_json << "\n";
    return 2;
  }
  if (!opts.trace_path.empty() &&
      !dumbnet::telemetry::FlightRecorder::Global().SaveTo(opts.trace_path)) {
    std::cerr << "dumbnet-fuzz: cannot write " << opts.trace_path << "\n";
    return 2;
  }
  if (!opts.json_path.empty() &&
      !WriteJsonSummary(opts.json_path, seeds_run, failing_seeds, first_failure)) {
    std::cerr << "dumbnet-fuzz: cannot write " << opts.json_path << "\n";
    return 2;
  }
  return exit_code;
}
