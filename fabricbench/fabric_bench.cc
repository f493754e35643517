// fabric_bench: the DumbNet fabric benchmark.
//
// Runs one named workload through the public APIs only (SimulatedFabric,
// HostAgent::Send, chaos::RunSchedule, wire::WireFabric::Ping), checks the
// run's health, and prints one JSON result line as the last line of stdout.
//
//   fabric_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--scratch <dir>]
//   fabric_bench --selftest
//
// --trace 0 reports the end-to-end metrics over as many (set-up, measure)
// iterations as fit in --seconds: set-up time is their median; the measured
// phase is cut into slices of equal work in every iteration, and its wall
// time (and, on the wire, the RTT median) comes from each slice's fastest run.
// --trace 1 runs one
// untraced and one traced iteration of the same seed and reports the
// per-layer metrics of the traced one. The traced iteration re-registers a
// timing pass-through NetNode in front of every switch and host, times the
// benchmark's own HostAgent::Send calls, and reads every layer's stats. Its
// virtual-time outputs and layer counts must equal the untraced iteration's.
//
// Exit codes: 0 healthy, 1 a health or transparency check failed, 2 usage.
// fabricbench/run.py builds this program and is the normal entry point.

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/core/fabric.h"
#include "src/telemetry/telemetry.h"
#include "src/topo/generators.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/wire/runtime.h"

namespace dumbnet {
namespace {

using Clock = std::chrono::steady_clock;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return static_cast<double>(WallNs() - start_ns) / 1e9; }

// VmHWM of this process. getrusage's ru_maxrss would not do: it survives
// exec, so it starts at the launching process's peak.
double PeakRssMb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// Exact percentile with linear interpolation, p in [0, 100].
double Percentile(const std::vector<double>& values, double p) {
  SampleSet set;
  set.AddAll(values);
  return set.Percentile(p);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Tracing: spans at the layer boundaries the benchmark can reach from outside.
// ---------------------------------------------------------------------------

struct LayerClock {
  uint64_t calls = 0;
  int64_t ns = 0;
};

struct Trace {
  LayerClock switch_ingress;
  LayerClock host_ingress;
  LayerClock ctrl_ingress;
  LayerClock host_send;
  // Spans opened while another was open; their time would be counted twice.
  uint64_t nested_spans = 0;
  int depth = 0;
  LogHistogram event_wall;  // ns per executed event
  int64_t last_event_ns = 0;
  int64_t ctrl_uplink_backlog_max = 0;

  double SpanSeconds() const {
    return static_cast<double>(switch_ingress.ns + host_ingress.ns + ctrl_ingress.ns +
                               host_send.ns) /
           1e9;
  }
};

class Span {
 public:
  Span(Trace* trace, LayerClock* clock) : trace_(trace), clock_(clock), start_(WallNs()) {
    if (trace_->depth++ > 0) {
      ++trace_->nested_spans;
    }
  }
  ~Span() {
    clock_->ns += WallNs() - start_;
    ++clock_->calls;
    --trace_->depth;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  LayerClock* clock_;
  int64_t start_;
};

// Pass-through NetNode: times every delivery into `inner` and forwards it
// unchanged (rvalue deliveries stay rvalues, so the switch fast path still
// moves packets instead of copying them).
class TimedNode : public NetNode {
 public:
  TimedNode(NetNode* inner, Trace* trace, LayerClock* clock)
      : inner_(inner), trace_(trace), clock_(clock) {}

  void HandlePacket(const Packet& pkt, PortNum in_port) override {
    Span span(trace_, clock_);
    inner_->HandlePacket(pkt, in_port);
  }
  void HandlePacket(Packet&& pkt, PortNum in_port) override {
    Span span(trace_, clock_);
    inner_->HandlePacket(std::move(pkt), in_port);
  }
  void HandlePortChange(PortNum port, bool up) override {
    Span span(trace_, clock_);
    inner_->HandlePortChange(port, up);
  }

 private:
  NetNode* inner_;
  Trace* trace_;
  LayerClock* clock_;
};

// Owns the proxies of one traced fabric. Construct after the fabric's set-up
// so set-up traffic is not counted; destroy before the fabric.
class FabricTracer {
 public:
  FabricTracer(SimulatedFabric& fabric, Trace* trace, uint32_t controller_host)
      : fabric_(fabric), trace_(trace) {
    for (uint32_t s = 0; s < fabric.switch_count(); ++s) {
      proxies_.push_back(
          std::make_unique<TimedNode>(&fabric.dumb_switch(s), trace, &trace->switch_ingress));
      fabric.net().RegisterSwitchNode(s, proxies_.back().get());
    }
    for (uint32_t h = 0; h < fabric.host_count(); ++h) {
      LayerClock* clock = h == controller_host ? &trace->ctrl_ingress : &trace->host_ingress;
      proxies_.push_back(std::make_unique<TimedNode>(&fabric.agent(h), trace, clock));
      fabric.net().RegisterHostNode(h, proxies_.back().get());
    }
    const LinkIndex uplink = fabric.topo().host_at(controller_host).link;
    const NodeId ctrl_node = NodeId::Host(controller_host);
    Network* net = &fabric.net();
    fabric.sim().SetTraceHook([trace, net, uplink, ctrl_node](TimeNs, uint64_t) {
      const int64_t now = WallNs();
      trace->event_wall.Add(static_cast<double>(now - trace->last_event_ns));
      trace->last_event_ns = now;
      trace->ctrl_uplink_backlog_max =
          std::max(trace->ctrl_uplink_backlog_max, net->QueueBacklog(uplink, ctrl_node));
    });
  }
  ~FabricTracer() {
    fabric_.sim().SetTraceHook(nullptr);
    for (uint32_t s = 0; s < fabric_.switch_count(); ++s) {
      fabric_.net().RegisterSwitchNode(s, &fabric_.dumb_switch(s));
    }
    for (uint32_t h = 0; h < fabric_.host_count(); ++h) {
      fabric_.net().RegisterHostNode(h, &fabric_.agent(h));
    }
  }
  FabricTracer(const FabricTracer&) = delete;
  FabricTracer& operator=(const FabricTracer&) = delete;

  // Call right before handing control to the simulator, so the first event's
  // wall time does not include the benchmark's own work.
  void Resume() { trace_->last_event_ns = WallNs(); }

 private:
  SimulatedFabric& fabric_;
  Trace* trace_;
  std::vector<std::unique_ptr<TimedNode>> proxies_;
};

// HostAgent::Send from the benchmark's own code, timed when traced.
Status TimedSend(Trace* trace, HostAgent& agent, uint64_t dst_mac, uint64_t flow_id,
                 const DataPayload& payload) {
  if (trace == nullptr) {
    return agent.Send(dst_mac, flow_id, payload);
  }
  Span span(trace, &trace->host_send);
  return agent.Send(dst_mac, flow_id, payload);
}

// ---------------------------------------------------------------------------
// One iteration's outcome.
// ---------------------------------------------------------------------------

using Counters = std::map<std::string, double>;

struct Outcome {
  double setup_s = 0;
  double wall_s = 0;
  // Wall seconds of consecutive slices of the measured phase. The cuts fall
  // where every iteration of a seed has done the same work, so slice k of one
  // iteration can stand in for slice k of another.
  std::vector<double> slice_s;
  // latency_us.size() at the end of each slice (wire_rtt only).
  std::vector<size_t> slice_samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_us;  // the workload's user-facing latency samples
  // Counts of the measured phase, identical for a given seed (virtual time).
  Counters counts;
  // Layer timings and other per-layer values that only a traced run has.
  Counters traced;
  std::vector<std::string> errors;  // broken invariants: the run is invalid
};

// Cumulative counters of every simulated layer, read from the stats each
// layer exposes.
Counters SimCounters(SimulatedFabric& fabric) {
  Counters c;
  c["sim.events"] = static_cast<double>(fabric.executed_events());
  const NetworkStats ns = fabric.net().stats();
  c["net.delivered"] = static_cast<double>(ns.delivered);
  c["net.bytes_delivered"] = static_cast<double>(ns.bytes_delivered);
  c["net.dropped_queue_full"] = static_cast<double>(ns.dropped_queue_full);
  c["net.dropped_link_down"] = static_cast<double>(ns.dropped_link_down);
  c["net.dropped_gray"] = static_cast<double>(ns.dropped_gray);
  for (uint32_t s = 0; s < fabric.switch_count(); ++s) {
    const DumbSwitchStats& st = fabric.dumb_switch(s).stats();
    c["switch.forwarded"] += static_cast<double>(st.forwarded);
    c["switch.notifications_relayed"] += static_cast<double>(st.notifications_relayed);
    c["switch.alarms_suppressed"] += static_cast<double>(st.alarms_suppressed);
    c["switch.dropped"] +=
        static_cast<double>(st.dropped_bad_tag + st.dropped_port_down + st.dropped_foreign);
  }
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    HostAgent& agent = fabric.agent(h);
    const HostAgentStats& st = agent.stats();
    c["host.path_requests"] += static_cast<double>(st.path_requests);
    c["host.path_responses"] += static_cast<double>(st.path_responses);
    c["host.data_blocked"] += static_cast<double>(st.data_blocked);
    c["host.floods_sent"] += static_cast<double>(st.floods_sent);
    // Deduplicated link-state events, whether a fabric notification or a
    // host flood delivered them first.
    c["host.link_events_seen"] += static_cast<double>(st.port_events_seen + st.link_events_seen);
    c["host.link_repairs"] += static_cast<double>(st.link_repairs);
    c["host.reroutes"] += static_cast<double>(st.reroutes);
    c["host.patches_applied"] += static_cast<double>(st.patches_applied);
    c["host.verify_failures"] += static_cast<double>(st.verify_failures);
    c["host.path_divergence"] += static_cast<double>(st.path_divergence);
    c["host.path_hits"] += static_cast<double>(agent.path_table().stats().hits);
    c["host.path_misses"] += static_cast<double>(agent.path_table().stats().misses);
    c["host.cached_destinations"] += static_cast<double>(agent.path_table().size());
  }
  if (fabric.has_controller()) {
    ControllerService& ctrl = fabric.controller();
    const ControllerStats& st = ctrl.stats();
    c["ctrl.queries_served"] = static_cast<double>(st.queries_served);
    c["ctrl.queries_failed"] = static_cast<double>(st.queries_failed);
    c["ctrl.bootstraps_sent"] = static_cast<double>(st.bootstraps_sent);
    c["ctrl.link_events"] = static_cast<double>(st.link_events);
    c["ctrl.patches_sent"] = static_cast<double>(st.patches_sent);
    c["ctrl.wire_cache_hits"] = static_cast<double>(st.wire_cache_hits);
    c["ctrl.wire_cache_misses"] = static_cast<double>(st.wire_cache_misses);
    c["ctrl.probes_sent"] = static_cast<double>(ctrl.discovery().stats().probes_sent);
    c["routing.sssp_hits"] = static_cast<double>(ctrl.sssp_cache_stats().hits);
    c["routing.sssp_misses"] = static_cast<double>(ctrl.sssp_cache_stats().misses);
  }
  return c;
}

// The measured phase's counts: `after - before`, plus the ratios derived from
// them and the simulator's event-pool high-water mark.
Counters PhaseCounts(SimulatedFabric& fabric, const Counters& before) {
  Counters c = SimCounters(fabric);
  for (auto& [name, value] : c) {
    auto it = before.find(name);
    if (it != before.end()) {
      value -= it->second;
    }
  }
  c["sim.pool_slots"] = static_cast<double>(fabric.sim().mem_stats().pool_slots);
  c["host.path_hit_ratio"] =
      Ratio(c["host.path_hits"], c["host.path_hits"] + c["host.path_misses"]);
  c["ctrl.query_amplification"] =
      Ratio(c["ctrl.queries_served"], c["host.cached_destinations"]);
  c["ctrl.wire_cache_hit_ratio"] =
      Ratio(c["ctrl.wire_cache_hits"], c["ctrl.wire_cache_hits"] + c["ctrl.wire_cache_misses"]);
  c["routing.sssp_hit_ratio"] =
      Ratio(c["routing.sssp_hits"], c["routing.sssp_hits"] + c["routing.sssp_misses"]);
  // Every served-graph cache miss is one BuildPathGraph call.
  c["routing.path_graphs_built"] = c["ctrl.wire_cache_misses"];
  return c;
}

// Cuts the measured phase into slices: each Mark() ends one.
class SliceClock {
 public:
  explicit SliceClock(Outcome& out) : out_(out), last_(WallNs()) {}
  void Mark() {
    const int64_t now = WallNs();
    out_.slice_s.push_back(static_cast<double>(now - last_) / 1e9);
    out_.slice_samples.push_back(out_.latency_us.size());
    last_ = now;
  }

 private:
  Outcome& out_;
  int64_t last_;
};

// Run() to quiescence, one slice per kSliceEvents executed events (2-30 ms,
// the longest on coldstart_ft8, whose events compute routes). With one shard
// Run() is RunSteps() in a loop, so the events and their order are exactly
// Run()'s.
constexpr uint64_t kSliceEvents = uint64_t{1} << 13;

void RunSliced(SimulatedFabric& fabric, SliceClock& clock) {
  while (fabric.RunSteps(kSliceEvents) > 0) {
    clock.Mark();
  }
}

// Health checks every sim workload shares.
void CheckSimHealth(const Counters& counts, Outcome& out) {
  if (counts.at("host.verify_failures") > 0) {
    out.errors.push_back("host.verify_failures > 0");
  }
  if (counts.at("host.path_divergence") > 0) {
    out.errors.push_back("host.path_divergence > 0");
  }
}

// Folds the traced fabric's span timings into `out.traced`.
void RecordTrace(const Trace& trace, Outcome& out) {
  Counters& t = out.traced;
  t["switch.ingress_calls"] = static_cast<double>(trace.switch_ingress.calls);
  t["switch.ingress_ns"] = static_cast<double>(trace.switch_ingress.ns);
  t["host.ingress_calls"] = static_cast<double>(trace.host_ingress.calls);
  t["host.ingress_ns"] = static_cast<double>(trace.host_ingress.ns);
  t["ctrl.ingress_calls"] = static_cast<double>(trace.ctrl_ingress.calls);
  t["ctrl.ingress_ns"] = static_cast<double>(trace.ctrl_ingress.ns);
  t["host.send_calls"] = static_cast<double>(trace.host_send.calls);
  t["host.send_ns"] = static_cast<double>(trace.host_send.ns);
  t["sim.event_wall_ns_p50"] = trace.event_wall.Percentile(50);
  t["sim.event_wall_ns_p99"] = trace.event_wall.Percentile(99);
  t["net.ctrl_uplink_backlog_max_kb"] =
      static_cast<double>(trace.ctrl_uplink_backlog_max) / 1024.0;
  t["sim.span_s"] = trace.SpanSeconds();
  t["sim.nested_spans"] = static_cast<double>(trace.nested_spans);
}

SimulatedFabric MakeSimFabric(Topology topo, uint64_t seed) {
  HostAgentConfig agent;
  agent.rng_seed = seed;
  // shards = 1 explicitly: DUMBNET_SHARDS must not change the measured program.
  return SimulatedFabric(std::move(topo), agent, DumbSwitchConfig(), NetworkConfig(),
                         /*shards=*/1);
}

ControllerConfig MakeControllerConfig(uint64_t seed) {
  ControllerConfig config;
  config.rng_seed = seed;
  return config;
}

// Seeded cable lengths: every inter-switch link gets 400-600 ns of
// propagation (80-120 m of fiber) instead of the uniform 500 ns default.
void SeedCableLengths(Topology& topo, uint64_t seed) {
  Rng rng(seed ^ 0xCAB1E5ULL);
  for (LinkIndex li = 0; li < topo.link_count(); ++li) {
    const Link& link = topo.link_at(li);
    if (link.a.node.is_switch() && link.b.node.is_switch()) {
      topo.SetLinkPropagation(li, rng.UniformRange(400, 600));
    }
  }
}

FatTreeTopo MakeFatTree8() {
  FatTreeConfig config;
  config.k = 8;
  return std::move(MakeFatTree(config).value());
}

Topology FatTree8(uint64_t seed) {
  Topology topo = std::move(MakeFatTree8().topo);
  SeedCableLengths(topo, seed);
  return topo;
}

// ---------------------------------------------------------------------------
// bringup_ls4k: probing discovery + bootstrap of a 4,096-host leaf-spine.
// ---------------------------------------------------------------------------

constexpr uint32_t kControllerHost = 0;

// Runs `phase` as the measured phase of a set-up fabric and fills setup_s,
// wall_s, the slices and the phase's counts. A traced run puts the proxies in
// front of every node first; `phase` gets the tracer (or nullptr) so it can
// resume event timing after work of its own between simulator runs, and the
// slice clock, whose last slice MeasureSimPhase closes.
void MeasureSimPhase(SimulatedFabric& fabric, Trace* trace, int64_t setup_start, Outcome& out,
                     const std::function<void(FabricTracer*, SliceClock&)>& phase) {
  std::unique_ptr<FabricTracer> tracer;
  if (trace != nullptr) {
    tracer = std::make_unique<FabricTracer>(fabric, trace, kControllerHost);
  }
  const Counters before = SimCounters(fabric);
  out.setup_s = SecondsSince(setup_start);
  const int64_t t0 = WallNs();
  SliceClock clock(out);
  if (tracer) {
    tracer->Resume();
  }
  phase(tracer.get(), clock);
  clock.Mark();
  out.wall_s = SecondsSince(t0);
  tracer.reset();
  out.counts = PhaseCounts(fabric, before);
  CheckSimHealth(out.counts, out);
}

// Brings `topo` up with probing discovery and counts the hosts that never
// received a bootstrap (the operation that can fail). Shared with the
// self-test that forces such a failure.
Outcome RunBringUp(const std::function<Topology()>& make_topo, uint64_t seed,
                   uint8_t max_ports, Trace* trace) {
  Outcome out;
  const int64_t setup_start = WallNs();
  Topology topo = make_topo();
  const size_t switches = topo.switch_count();
  SimulatedFabric fabric = MakeSimFabric(std::move(topo), seed);
  const uint32_t hosts = static_cast<uint32_t>(fabric.host_count());
  // Bootstrap arrival per host, observed through the control-plane plug-in
  // (returning false leaves the packet to the agent). The controller's own host
  // bootstraps in place and is skipped.
  std::vector<TimeNs> booted_at(hosts, -1);
  for (uint32_t h = 0; h < hosts; ++h) {
    if (h == kControllerHost) {
      continue;
    }
    fabric.agent(h).SetControlHandler([&fabric, &booted_at, h](const Packet& pkt) {
      if (pkt.As<BootstrapPayload>() != nullptr && booted_at[h] < 0) {
        booted_at[h] = fabric.Now();
      }
      return false;
    });
  }
  DiscoveryConfig discovery;
  discovery.max_ports = max_ports;
  const TimeNs start = fabric.Now();
  bool ready = false;
  // SimulatedFabric::BringUp's own steps, with its Run() sliced.
  MeasureSimPhase(fabric, trace, setup_start, out, [&](FabricTracer*, SliceClock& clock) {
    fabric.AddController(kControllerHost, MakeControllerConfig(seed), discovery)
        .Start([&ready] { ready = true; });
    RunSliced(fabric, clock);
  });
  if (!ready) {
    out.errors.push_back("BringUp never reported the controller ready");
  }
  const size_t found = fabric.controller().db().mirror().switch_count();
  if (found != switches) {
    out.errors.push_back("discovery found " + std::to_string(found) + " of " +
                         std::to_string(switches) + " switches");
  }
  out.attempted = hosts;
  TimeNs last_boot = start;
  for (uint32_t h = 0; h < hosts; ++h) {
    const bool booted = fabric.agent(h).bootstrapped();
    if (!booted) {
      ++out.failed;
    }
    if (booted_at[h] >= 0) {
      if (!booted) {
        out.errors.push_back("host " + std::to_string(h) + " received a bootstrap but is dark");
      }
      out.latency_us.push_back(static_cast<double>(booted_at[h] - start) / 1e3);
      last_boot = std::max(last_boot, booted_at[h]);
    }
  }
  const DiscoveryStats& disc = fabric.controller().discovery().stats();
  out.counts["ctrl.discovery_virtual_s"] =
      static_cast<double>(disc.finished_at - disc.started_at) / 1e9;
  out.counts["ctrl.bootstrap_virtual_s"] =
      static_cast<double>(std::max<TimeNs>(0, last_boot - disc.finished_at)) / 1e9;
  out.counts["bench.virtual_end_s"] = static_cast<double>(fabric.Now() - start) / 1e9;
  return out;
}

Outcome BringupLs4k(uint64_t seed, Trace* trace) {
  LeafSpineConfig config;
  config.num_spine = 4;
  config.num_leaf = 64;
  config.hosts_per_leaf = 64;
  config.switch_ports = 72;
  auto make_topo = [&config, seed] {
    Topology topo = std::move(MakeLeafSpine(config).value().topo);
    SeedCableLengths(topo, seed);
    return topo;
  };
  return RunBringUp(make_topo, seed, config.switch_ports, trace);
}

// ---------------------------------------------------------------------------
// Ping workloads on the k=8 fat-tree (80 switches, 128 hosts).
// ---------------------------------------------------------------------------

struct PingPair {
  uint32_t src = 0;
  uint32_t dst = 0;
};

// Each host pings `per_host` distinct partners drawn from a seeded shuffle.
std::vector<PingPair> MakePairs(uint32_t hosts, uint32_t per_host, uint64_t seed) {
  Rng rng(seed ^ 0x9A127E45ULL);
  std::vector<PingPair> pairs;
  for (uint32_t src = 0; src < hosts; ++src) {
    std::vector<uint32_t> others;
    for (uint32_t h = 0; h < hosts; ++h) {
      if (h != src) {
        others.push_back(h);
      }
    }
    rng.Shuffle(others);
    for (uint32_t i = 0; i < per_host; ++i) {
      pairs.push_back({src, others[i]});
    }
  }
  return pairs;
}

// Echo pings over a fixed pair list. A ping is (flow = pair index + 1, seq);
// each host echoes requests and validates answers against what was sent.
class PingBook {
 public:
  PingBook(SimulatedFabric& fabric, std::vector<PingPair> pairs, uint32_t seqs_per_pair)
      : fabric_(fabric),
        pairs_(std::move(pairs)),
        seqs_(seqs_per_pair),
        sent_at_(pairs_.size() * seqs_per_pair, -1),
        answered_(pairs_.size() * seqs_per_pair, false) {
    for (uint32_t h = 0; h < fabric.host_count(); ++h) {
      fabric.agent(h).SetDataHandler([this, h](const Packet& pkt, const DataPayload& data) {
        OnData(h, pkt, data);
      });
    }
  }
  PingBook(const PingBook&) = delete;
  PingBook& operator=(const PingBook&) = delete;

  void set_trace(Trace* trace) { trace_ = trace; }
  size_t pair_count() const { return pairs_.size(); }

  // Sends ping `seq` of pair `p` now.
  void Send(size_t p, uint32_t seq, int64_t bytes) {
    const PingPair& pair = pairs_[p];
    sent_at_[p * seqs_ + seq] = fabric_.Now();
    DataPayload ping;
    ping.seq = seq;
    ping.bytes = bytes;
    HostAgent& src = fabric_.agent(pair.src);
    const Status s = TimedSend(trace_, src, fabric_.agent(pair.dst).mac(), p + 1, ping);
    if (!s.ok()) {
      errors_.push_back("Send failed: " + s.ToString());
    }
  }

  // Answered pings' RTTs (µs) over seqs [first, seqs), and the count sent but
  // not answered.
  void Collect(uint32_t first, Outcome& out) const {
    for (size_t p = 0; p < pairs_.size(); ++p) {
      for (uint32_t s = first; s < seqs_; ++s) {
        const size_t i = p * seqs_ + s;
        if (sent_at_[i] < 0) {
          continue;
        }
        ++out.attempted;
        if (!answered_[i]) {
          ++out.failed;
        }
      }
    }
    out.latency_us.insert(out.latency_us.end(), rtt_us_.begin(), rtt_us_.end());
    out.errors.insert(out.errors.end(), errors_.begin(), errors_.end());
  }
  void ClearSamples() { rtt_us_.clear(); }

 private:
  void OnData(uint32_t h, const Packet& pkt, const DataPayload& data) {
    if (!data.is_ack) {
      DataPayload echo = data;
      echo.is_ack = true;
      const Status s = TimedSend(trace_, fabric_.agent(h), pkt.eth.src_mac, data.flow_id, echo);
      if (!s.ok()) {
        errors_.push_back("echo Send failed: " + s.ToString());
      }
      return;
    }
    const uint64_t p = data.flow_id - 1;
    if (data.flow_id == 0 || p >= pairs_.size() || data.seq >= seqs_ || pairs_[p].src != h ||
        sent_at_[p * seqs_ + data.seq] < 0) {
      errors_.push_back("answer for a ping never sent (flow " + std::to_string(data.flow_id) +
                        ", seq " + std::to_string(data.seq) + ")");
      return;
    }
    const size_t i = p * seqs_ + data.seq;
    if (answered_[i]) {
      errors_.push_back("duplicate answer (flow " + std::to_string(data.flow_id) + ")");
      return;
    }
    answered_[i] = true;
    rtt_us_.push_back(static_cast<double>(fabric_.Now() - sent_at_[i]) / 1e3);
  }

  SimulatedFabric& fabric_;
  std::vector<PingPair> pairs_;
  uint32_t seqs_;
  std::vector<TimeNs> sent_at_;
  std::vector<bool> answered_;
  std::vector<double> rtt_us_;
  std::vector<std::string> errors_;
  Trace* trace_ = nullptr;
};

// coldstart_ft8: every host pings 32 partners once from cold caches, all
// within 100 µs, so 4,096 path queries hit the controller at once.
Outcome ColdstartFt8(uint64_t seed, Trace* trace) {
  constexpr uint32_t kPartners = 32;
  constexpr TimeNs kStagger = Us(100);
  Outcome out;
  const int64_t setup_start = WallNs();
  SimulatedFabric fabric = MakeSimFabric(FatTree8(seed), seed);
  fabric.BringUpAdopted(kControllerHost, MakeControllerConfig(seed));
  const uint32_t hosts = static_cast<uint32_t>(fabric.host_count());
  PingBook book(fabric, MakePairs(hosts, kPartners, seed), /*seqs_per_pair=*/1);
  // Seeded send order, evenly spread over the stagger window.
  std::vector<size_t> order(book.pair_count());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Rng rng(seed ^ 0xC01D5EEDULL);
  rng.Shuffle(order);
  const TimeNs epoch = fabric.Now() + Us(1);
  for (size_t i = 0; i < order.size(); ++i) {
    const TimeNs at = epoch + kStagger * static_cast<TimeNs>(i) /
                                  static_cast<TimeNs>(order.size());
    fabric.sim().ScheduleAt(at, [&book, p = order[i]] { book.Send(p, 0, 64); });
  }
  book.set_trace(trace);
  MeasureSimPhase(fabric, trace, setup_start, out,
                  [&](FabricTracer*, SliceClock& clock) { RunSliced(fabric, clock); });
  book.Collect(0, out);
  out.counts["bench.virtual_end_s"] = static_cast<double>(fabric.Now() - epoch) / 1e9;
  return out;
}

// pingmesh_ft8: warm caches, then 300 pings per pair to 8 partners per host
// at 100 µs spacing (open loop), alternating 64 B and 1,500 B.
Outcome PingmeshFt8(uint64_t seed, Trace* trace) {
  constexpr uint32_t kPartners = 8;
  constexpr uint32_t kPings = 300;
  constexpr TimeNs kSpacing = Us(100);
  Outcome out;
  const int64_t setup_start = WallNs();
  SimulatedFabric fabric = MakeSimFabric(FatTree8(seed), seed);
  fabric.BringUpAdopted(kControllerHost, MakeControllerConfig(seed));
  const uint32_t hosts = static_cast<uint32_t>(fabric.host_count());
  // seq 0 is the warm-up ping; seqs 1..kPings are measured.
  PingBook book(fabric, MakePairs(hosts, kPartners, seed), kPings + 1);
  for (size_t p = 0; p < book.pair_count(); ++p) {
    book.Send(p, 0, 64);
  }
  fabric.Run();
  {
    Outcome warm;
    book.Collect(0, warm);
    if (warm.failed != 0 || !warm.errors.empty()) {
      out.errors.push_back("warm-up pings failed: " + std::to_string(warm.failed));
      return out;
    }
  }
  book.ClearSamples();

  // One self-rescheduling chain per pair, staggered inside one spacing.
  const TimeNs epoch = fabric.Now() + Us(1);
  const size_t pairs = book.pair_count();
  std::function<void(size_t, uint32_t)> fire = [&](size_t p, uint32_t seq) {
    book.Send(p, seq, seq % 2 == 1 ? 64 : 1500);
    if (seq < kPings) {
      fabric.sim().ScheduleAfter(kSpacing, [&fire, p, seq] { fire(p, seq + 1); });
    }
  };
  for (size_t p = 0; p < pairs; ++p) {
    const TimeNs at = epoch + kSpacing * static_cast<TimeNs>(p) / static_cast<TimeNs>(pairs);
    fabric.sim().ScheduleAt(at, [&fire, p] { fire(p, 1); });
  }
  book.set_trace(trace);
  MeasureSimPhase(fabric, trace, setup_start, out,
                  [&](FabricTracer*, SliceClock& clock) { RunSliced(fabric, clock); });
  book.Collect(1, out);
  out.counts["bench.virtual_end_s"] = static_cast<double>(fabric.Now() - epoch) / 1e9;
  return out;
}

// The switch whose links all go down at one instant before the final
// restore: the schedule's correlated outage. -1 when there is none.
int64_t OutageVictim(const Topology& topo, const chaos::ChaosSchedule& schedule,
                     const chaos::ChaosConfig& config) {
  std::map<TimeNs, std::vector<LinkIndex>> downs;
  for (const chaos::ChaosAction& a : schedule.actions) {
    if (a.kind == chaos::ChaosAction::Kind::kLinkDown && a.at < config.horizon - config.settle) {
      downs[a.at].push_back(a.link);
    }
  }
  for (const auto& [at, links] : downs) {
    if (links.size() < 2) {
      continue;
    }
    std::map<uint32_t, size_t> touches;
    for (LinkIndex li : links) {
      ++touches[topo.link_at(li).a.node.index];
      ++touches[topo.link_at(li).b.node.index];
    }
    for (const auto& [sw, n] : touches) {
      if (n == links.size()) {
        return sw;
      }
    }
  }
  return -1;
}

// The first schedule, over chaos seeds derived from `seed`, whose outage hits
// an aggregation switch. Losing an aggregation switch is the outage class
// whose stranded hosts learn late, through floods; pinning the class keeps
// the failover tail comparable from seed to seed, while flaps, gray link,
// victim and timing still change with the seed.
chaos::ChaosSchedule AggregationOutageSchedule(const Topology& topo,
                                               const std::vector<uint32_t>& aggregation,
                                               uint64_t seed, chaos::ChaosConfig config) {
  Rng seeds(seed ^ 0xC4A05ULL);
  for (int attempt = 0; attempt < 64; ++attempt) {
    config.seed = seeds.Next64();
    chaos::ChaosSchedule schedule = chaos::GenerateSchedule(topo, config);
    const int64_t victim = OutageVictim(topo, schedule, config);
    if (victim >= 0 && std::count(aggregation.begin(), aggregation.end(), victim) > 0) {
      return schedule;
    }
  }
  return {};
}

// churn_ft8: a seeded chaos schedule (6 flapping links, 1 gray link, 1
// aggregation-switch outage over 1 s) with 8 fresh one-packet flows injected
// at every boundary.
Outcome ChurnFt8(uint64_t seed, Trace* trace) {
  constexpr int kFlowsPerBoundary = 8;
  Outcome out;
  const int64_t setup_start = WallNs();
  FatTreeTopo ft = MakeFatTree8();
  const std::vector<uint32_t> aggregation = ft.aggregation;
  SeedCableLengths(ft.topo, seed);
  SimulatedFabric fabric = MakeSimFabric(std::move(ft.topo), seed);
  fabric.BringUpAdopted(kControllerHost, MakeControllerConfig(seed));
  const uint32_t hosts = static_cast<uint32_t>(fabric.host_count());

  chaos::ChaosConfig config;
  config.horizon = Ms(1000);
  config.flap.links = 6;
  config.gray.links = 1;
  config.outage.enabled = true;
  const chaos::ChaosSchedule schedule =
      AggregationOutageSchedule(fabric.topo(), aggregation, seed, config);
  if (schedule.empty()) {
    out.errors.push_back("no chaos seed puts the outage on an aggregation switch");
    return out;
  }

  // Virtual time from a link-down's origin to each host learning of it.
  for (uint32_t h = 0; h < hosts; ++h) {
    HostAgent* agent = &fabric.agent(h);
    agent->SetLinkEventHook([agent, &out](const LinkEventPayload& ev, bool) {
      if (!ev.up) {
        out.latency_us.push_back(static_cast<double>(agent->sim().Now() - ev.origin_time) /
                                 1e3);
      }
    });
  }
  std::vector<uint32_t> flow_dst;  // flow id - 1 -> destination host
  std::vector<bool> delivered;
  for (uint32_t h = 0; h < hosts; ++h) {
    fabric.agent(h).SetDataHandler([&, h](const Packet&, const DataPayload& data) {
      const uint64_t f = data.flow_id - 1;
      if (data.flow_id == 0 || f >= flow_dst.size() || flow_dst[f] != h) {
        out.errors.push_back("delivery of a flow never sent (" + std::to_string(data.flow_id) +
                             ")");
      } else if (delivered[f]) {
        out.errors.push_back("flow delivered twice (" + std::to_string(data.flow_id) + ")");
      } else {
        delivered[f] = true;
      }
    });
  }
  Rng traffic(seed ^ 0xF10E5ULL);
  chaos::RunHooks hooks;
  FabricTracer* tracer = nullptr;
  hooks.on_boundary = [&](TimeNs) {
    for (int i = 0; i < kFlowsPerBoundary; ++i) {
      const uint32_t src = static_cast<uint32_t>(traffic.UniformInt(hosts));
      uint32_t dst = static_cast<uint32_t>(traffic.UniformInt(hosts - 1));
      if (dst >= src) {
        ++dst;
      }
      flow_dst.push_back(dst);
      delivered.push_back(false);
      const Status s = TimedSend(trace, fabric.agent(src), fabric.agent(dst).mac(),
                                 flow_dst.size(), DataPayload{});
      if (!s.ok()) {
        out.errors.push_back("Send failed: " + s.ToString());
      }
    }
    if (tracer != nullptr) {
      tracer->Resume();
    }
  };
  const TimeNs start = fabric.Now();
  MeasureSimPhase(fabric, trace, setup_start, out, [&](FabricTracer* t, SliceClock& clock) {
    tracer = t;
    // RunSchedule ends in a Run() to quiescence, so the slices are cut from
    // the audit hook instead: it only reads the clock and schedules nothing.
    fabric.sim().SetAuditHook(
        [&] {
          clock.Mark();
          if (tracer != nullptr) {
            tracer->Resume();
          }
        },
        kSliceEvents);
    chaos::RunSchedule(fabric, schedule, hooks);
    fabric.sim().SetAuditHook(nullptr);
    tracer = nullptr;
  });
  std::vector<LinkIndex> links = schedule.TouchedLinks();
  for (LinkIndex li : schedule.GrayLinks()) {
    links.push_back(li);
  }
  for (const std::string& line : chaos::CheckConvergence(fabric, links)) {
    out.errors.push_back("not converged: " + line);
  }
  out.attempted = flow_dst.size();
  out.failed = static_cast<uint64_t>(std::count(delivered.begin(), delivered.end(), false));
  out.counts["bench.chaos_actions"] = static_cast<double>(schedule.actions.size());
  out.counts["bench.virtual_end_s"] = static_cast<double>(fabric.Now() - start) / 1e9;
  return out;
}

// Pins the calling thread, and every thread it creates from then on, to the
// CPU it is running on; restores the previous mask on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    const int cpu = sched_getcpu();
    if (ok_ && cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ok_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
  }
  ~PinToOneCpu() {
    if (ok_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

// ---------------------------------------------------------------------------
// wire_rtt: real frames over Unix sockets, 2 switches and 2 hosts.
// ---------------------------------------------------------------------------

std::string g_scratch_dir = ".";

Outcome WireRtt(uint64_t seed, Trace* trace) {
  constexpr int kWarmup = 20;
  constexpr int kPings = 30000;
  constexpr int kSlicePings = 500;  // about 20 ms
  Outcome out;
  const int64_t setup_start = WallNs();
  Topology topo;
  const uint32_t s0 = topo.AddSwitch(8);
  const uint32_t s1 = topo.AddSwitch(8);
  (void)topo.ConnectSwitches(s0, 1, s1, 1);
  (void)topo.AttachHost(topo.AddHost(), s0, 3);
  (void)topo.AttachHost(topo.AddHost(), s1, 3);

  // Sockets live in a private directory inside the scratch dir.
  const std::string uds_dir =
      g_scratch_dir + "/wire-" + std::to_string(getpid()) + "-" + std::to_string(seed);
  if (::mkdir(uds_dir.c_str(), 0700) != 0) {
    out.errors.push_back("cannot create " + uds_dir);
    return out;
  }
  wire::WireFabricOptions opts;
  opts.node.uds_dir = uds_dir;
  opts.node.disc_config.max_ports = 8;
  opts.node.disc_config.probe_timeout = Ms(50);
  opts.node.host_config.rng_seed = seed;
  opts.node.ctrl_config.rng_seed = seed;
  opts.discovery_timeout = Sec(30);
  uint64_t flow = (seed & 0xFFFFFF) << 32 | 1;
  {
    wire::WireFabric fabric(topo, opts);
    Status status = fabric.Start();
    if (status.ok()) {
      status = fabric.RunDiscovery();
    }
    for (int i = 0; i < kWarmup && status.ok(); ++i) {
      if (!fabric.Ping(0, 1, flow++, Sec(1)).ok) {
        status = Error(ErrorCode::kUnavailable, "warm-up ping lost");
      }
    }
    if (!status.ok()) {
      out.errors.push_back("wire bring-up failed: " + status.ToString());
    } else {
      // Discovery leaves the odd stray probe at a host; only the measured
      // phase must be free of malformed packets.
      std::vector<uint64_t> malformed_before;
      for (uint32_t h = 0; h < fabric.host_count(); ++h) {
        malformed_before.push_back(fabric.HostStats(h).dropped_malformed);
      }
      if (trace != nullptr) {
        telemetry::MetricsRegistry::Global().Reset();
        telemetry::SetEnabled(true);
      }
      out.setup_s = SecondsSince(setup_start);
      const int64_t t0 = WallNs();
      SliceClock clock(out);
      for (int i = 0; i < kPings; ++i) {
        if (i > 0 && i % kSlicePings == 0) {
          clock.Mark();
        }
        const wire::PingOutcome ping = fabric.Ping(0, 1, flow++, Sec(1));
        ++out.attempted;
        if (ping.ok) {
          out.latency_us.push_back(static_cast<double>(ping.rtt_ns) / 1e3);
        } else {
          ++out.failed;
          if (!ping.error.empty()) {
            out.errors.push_back("ping send failed: " + ping.error);
          }
        }
      }
      clock.Mark();
      out.wall_s = SecondsSince(t0);
      if (trace != nullptr) {
        telemetry::SetEnabled(false);
      }
      for (uint32_t h = 0; h < fabric.host_count(); ++h) {
        const HostAgentStats st = fabric.HostStats(h);
        const uint64_t malformed = st.dropped_malformed - malformed_before[h];
        if (malformed > 0 || st.verify_failures > 0 || st.path_divergence > 0) {
          out.errors.push_back("host " + std::to_string(h) + ": " +
                               std::to_string(malformed) + " malformed, " +
                               std::to_string(st.verify_failures) + " unverifiable, " +
                               std::to_string(st.path_divergence) + " diverged packets");
        }
      }
    }
    fabric.Shutdown();
  }
  for (uint32_t i = 0; i < topo.switch_count(); ++i) {
    ::unlink((uds_dir + "/sw" + std::to_string(i) + ".sock").c_str());
  }
  ::rmdir(uds_dir.c_str());

  if (trace != nullptr) {
    const telemetry::RegistrySnapshot snap = telemetry::MetricsRegistry::Global().Snapshot();
    out.traced["wire.tx_packets"] = snap.Value("wire.tx_packets");
    out.traced["wire.rx_packets"] = snap.Value("wire.rx_packets");
    out.traced["wire.rx_malformed"] = snap.Value("wire.rx_malformed");
    const LogHistogram oneway =
        telemetry::MetricsRegistry::Global().GetHistogram("wire.oneway_ns")->Snapshot();
    out.traced["wire.oneway_ns_p50"] = oneway.Percentile(50);
    out.traced["wire.oneway_ns_p99"] = oneway.Percentile(99);
    if (out.traced["wire.rx_malformed"] > 0) {
      out.errors.push_back("wire.rx_malformed > 0");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metric catalogue and reporting.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  Outcome (*run)(uint64_t seed, Trace* trace);
  bool simulated;  // virtual-time outputs are deterministic for a seed
  const char* latency_name;  // what lat_p50_us / lat_p99_us measure here
};

const Workload kWorkloads[] = {
    {"bringup_ls4k", BringupLs4k, true, "host_bootstrap_virtual_us"},
    {"coldstart_ft8", ColdstartFt8, true, "rtt_virtual_us"},
    {"pingmesh_ft8", PingmeshFt8, true, "rtt_virtual_us"},
    {"churn_ft8", ChurnFt8, true, "failover_virtual_us"},
    {"wire_rtt", WireRtt, false, "wire_rtt_us"},
};

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics, in report order. Every traced run reports all of them;
// a layer the workload does not exercise reads 0.
const Metric kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.pool_slots", "count"},
    {"sim.event_wall_ns_p50", "ns"},
    {"sim.event_wall_ns_p99", "ns"},
    {"sim.residual_s", "s"},
    {"net.delivered", "count"},
    {"net.bytes_delivered", "bytes"},
    {"net.dropped_queue_full", "count"},
    {"net.dropped_link_down", "count"},
    {"net.dropped_gray", "count"},
    {"net.ctrl_uplink_backlog_max_kb", "KiB"},
    {"switch.ingress_calls", "count"},
    {"switch.ingress_ns", "ns"},
    {"switch.forwarded", "count"},
    {"switch.notifications_relayed", "count"},
    {"switch.alarms_suppressed", "count"},
    {"switch.dropped", "count"},
    {"host.send_calls", "count"},
    {"host.send_ns", "ns"},
    {"host.ingress_calls", "count"},
    {"host.ingress_ns", "ns"},
    {"host.path_hit_ratio", "ratio"},
    {"host.path_requests", "count"},
    {"host.path_responses", "count"},
    {"host.data_blocked", "count"},
    {"host.floods_sent", "count"},
    {"host.link_events_seen", "count"},
    {"host.link_repairs", "count"},
    {"host.reroutes", "count"},
    {"host.patches_applied", "count"},
    {"host.verify_failures", "count"},
    {"host.path_divergence", "count"},
    {"ctrl.ingress_calls", "count"},
    {"ctrl.ingress_ns", "ns"},
    {"ctrl.queries_served", "count"},
    {"ctrl.queries_failed", "count"},
    {"ctrl.query_amplification", "ratio"},
    {"ctrl.wire_cache_hit_ratio", "ratio"},
    {"ctrl.probes_sent", "count"},
    {"ctrl.bootstraps_sent", "count"},
    {"ctrl.discovery_virtual_s", "s"},
    {"ctrl.bootstrap_virtual_s", "s"},
    {"ctrl.link_events", "count"},
    {"ctrl.patches_sent", "count"},
    {"routing.sssp_hit_ratio", "ratio"},
    {"routing.sssp_misses", "count"},
    {"routing.path_graphs_built", "count"},
    {"wire.tx_packets", "count"},
    {"wire.rx_packets", "count"},
    {"wire.oneway_ns_p50", "ns"},
    {"wire.oneway_ns_p99", "ns"},
    {"wire.rx_malformed", "count"},
    {"trace.overhead_ratio", "ratio"},
};

double Lookup(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

// A run that prints a report passed every check, so it is always correct.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<Metric, double>> metrics;
};

void PrintJson(const Report& r) {
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.attempted, r.failed);
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].first.name, r.metrics[i].second, r.metrics[i].first.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool ReportErrors(const char* what, const Outcome& out) {
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "fabric_bench: %s: %s\n", what, e.c_str());
  }
  return out.errors.empty();
}

// What must repeat exactly for one seed: counts, failures and, for simulated
// workloads, every latency sample.
bool SameVirtualOutputs(const Workload& w, const Outcome& a, const Outcome& b,
                        std::string* why) {
  if (a.attempted != b.attempted || a.failed != b.failed) {
    *why = "attempted/failed differ";
    return false;
  }
  if (!w.simulated) {
    return true;
  }
  if (a.latency_us != b.latency_us) {
    *why = "latency samples differ";
    return false;
  }
  for (const auto& [name, value] : a.counts) {
    if (Lookup(b.counts, name) != value) {
      *why = name + " differs (" + std::to_string(value) + " vs " +
             std::to_string(Lookup(b.counts, name)) + ")";
      return false;
    }
  }
  return true;
}

void PrintSummary(const Workload& w, const Outcome& out) {
  std::printf("%s: attempted %" PRIu64 ", failed %" PRIu64 " (fail_frac %.6f)\n", w.name,
              out.attempted, out.failed, Ratio(static_cast<double>(out.failed),
                                               static_cast<double>(out.attempted)));
  std::printf("%s: %s p50 %.3f us, p99 %.3f us over %zu samples\n", w.name, w.latency_name,
              Percentile(out.latency_us, 50), Percentile(out.latency_us, 99),
              out.latency_us.size());
  if (w.simulated) {
    std::printf("%s: virtual time of the measured phase %.6f s, %.0f events\n", w.name,
                Lookup(out.counts, "bench.virtual_end_s"), Lookup(out.counts, "sim.events"));
  }
}

// The fastest run of every slice over a run's iterations. Their wall times
// add up to a measured phase the host's slow spells left alone, and on the
// wire their RTT samples make up the latency distribution. The host's speed
// changes within a fraction of a second, so each slice meets a quiet spell in
// some iteration far more often than a whole phase does.
class FastestSlices {
 public:
  // False when `out` is cut into another number of slices than the first.
  bool Add(const Outcome& out) {
    if (samples_.empty()) {
      fastest_s_.assign(out.slice_s.size(), std::numeric_limits<double>::infinity());
      samples_.resize(out.slice_s.size());
    }
    if (out.slice_s.size() != fastest_s_.size()) {
      return false;
    }
    for (size_t k = 0; k < fastest_s_.size(); ++k) {
      if (out.slice_s[k] < fastest_s_[k]) {
        fastest_s_[k] = out.slice_s[k];
        const size_t begin = k == 0 ? 0 : out.slice_samples[k - 1];
        samples_[k].assign(out.latency_us.begin() + static_cast<ptrdiff_t>(begin),
                           out.latency_us.begin() + static_cast<ptrdiff_t>(out.slice_samples[k]));
      }
    }
    return true;
  }
  size_t slice_count() const { return fastest_s_.size(); }
  double wall_s() const {
    double sum = 0;
    for (double s : fastest_s_) {
      sum += s;
    }
    return sum;
  }
  std::vector<double> latency_us() const {
    std::vector<double> all;
    for (const std::vector<double>& s : samples_) {
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  }

 private:
  std::vector<double> fastest_s_;
  std::vector<std::vector<double>> samples_;
};

int RunWorkload(const Workload& w, uint64_t seed, double seconds, bool traced) {
  // One CPU for the whole run. The simulator is single-threaded and never
  // migrates mid-run; on the wire, the pinging thread and all four node
  // threads share the CPU, so every hop is a same-CPU hand-off and the RTT is
  // the runtime's own per-hop work rather than cross-CPU wake-up latency,
  // which varies from run to run.
  PinToOneCpu pin;
  // The telemetry registry stays off except in the traced wire run.
  telemetry::SetEnabled(false);
  Report report;
  if (!traced) {
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> lat_p99;
    FastestSlices fastest;
    Outcome first;
    const int64_t start = WallNs();
    // Start another iteration only while the longest one so far still fits.
    double longest = 0;
    for (int iter = 0; iter == 0 || SecondsSince(start) + longest <= seconds; ++iter) {
      const int64_t iter_start = WallNs();
      Outcome out = w.run(seed, nullptr);
      longest = std::max(longest, SecondsSince(iter_start));
      if (!ReportErrors(w.name, out)) {
        return 1;
      }
      if (iter == 0) {
        first = out;
        PrintSummary(w, out);
      } else {
        std::string why;
        if (!SameVirtualOutputs(w, first, out, &why)) {
          std::fprintf(stderr, "fabric_bench: %s: iteration %d not deterministic: %s\n",
                       w.name, iter, why.c_str());
          return 1;
        }
      }
      if (!fastest.Add(out)) {
        std::fprintf(stderr, "fabric_bench: %s: iteration %d cut into %zu slices, not %zu\n",
                     w.name, iter, out.slice_s.size(), fastest.slice_count());
        return 1;
      }
      setup_s.push_back(out.setup_s);
      wall_s.push_back(out.wall_s);
      lat_p99.push_back(Percentile(out.latency_us, 99));
      std::printf("%s: iteration %d setup %.4f s, measured %.4f s, latency p50 %.3f us, "
                  "p99 %.3f us\n",
                  w.name, iter, out.setup_s, out.wall_s, Percentile(out.latency_us, 50),
                  lat_p99.back());
    }
    // Virtual latencies repeat exactly in every iteration. On the wire the
    // median comes from the fastest slices; the tail is what the host's
    // interruptions make of it, so it is the median iteration's p99.
    const double p50 = Percentile(w.simulated ? first.latency_us : fastest.latency_us(), 50);
    const double p99 = w.simulated ? Percentile(first.latency_us, 99) : Percentile(lat_p99, 50);
    std::printf("%s: %zu iterations of %zu slices; measured phase: median %.4f s, "
                "fastest slices %.4f s\n",
                w.name, wall_s.size(), fastest.slice_count(), Percentile(wall_s, 50),
                fastest.wall_s());
    report.attempted = first.attempted;
    report.failed = first.failed;
    const double ok_frac =
        1.0 - Ratio(static_cast<double>(first.failed), static_cast<double>(first.attempted));
    report.metrics = {
        {{"wall_s", "s"}, fastest.wall_s()},
        {{"setup_s", "s"}, Percentile(setup_s, 50)},
        {{"peak_rss_mb", "MB"}, PeakRssMb()},
        {{"ok_frac", "ratio"}, ok_frac},
        {{"lat_p50_us", "us"}, p50},
        {{"lat_p99_us", "us"}, p99},
    };
    PrintJson(report);
    return 0;
  }

  // Traced run: one untraced iteration for reference, then one traced.
  Outcome plain = w.run(seed, nullptr);
  if (!ReportErrors(w.name, plain)) {
    return 1;
  }
  Trace trace;
  Outcome out = w.run(seed, &trace);
  if (!ReportErrors(w.name, out)) {
    return 1;
  }
  PrintSummary(w, out);
  std::string why;
  if (!SameVirtualOutputs(w, plain, out, &why)) {
    std::fprintf(stderr, "fabric_bench: %s: tracing changed the outputs: %s\n", w.name,
                 why.c_str());
    return 1;
  }
  if (w.simulated) {
    RecordTrace(trace, out);
  }
  Counters all = out.counts;
  all.insert(out.traced.begin(), out.traced.end());
  const double spans = Lookup(all, "sim.span_s");
  all["sim.residual_s"] = out.wall_s - spans;
  all["sim.events_per_s"] = Ratio(Lookup(all, "sim.events"), out.wall_s);
  all["trace.overhead_ratio"] = Ratio(out.wall_s, plain.wall_s);
  // Layer-sum check: the spans do not overlap, so spans + residual is the
  // traced wall time; print how far apart they are.
  const double gap = out.wall_s - (spans + all["sim.residual_s"]);
  std::printf("%s: layer sum: spans %.6f s + residual %.6f s = traced wall %.6f s "
              "(gap %.3g s, %.0f nested spans)\n",
              w.name, spans, all["sim.residual_s"], out.wall_s, gap,
              Lookup(all, "sim.nested_spans"));
  std::printf("%s: trace overhead: traced wall %.6f s / untraced wall %.6f s = %.4f\n",
              w.name, out.wall_s, plain.wall_s, all["trace.overhead_ratio"]);
  if (Lookup(all, "sim.nested_spans") > 0 || all["sim.residual_s"] < 0) {
    std::fprintf(stderr, "fabric_bench: %s: layer spans overlap; the sum is invalid\n",
                 w.name);
    return 1;
  }
  report.attempted = out.attempted;
  report.failed = out.failed;
  for (const Metric& m : kLayerMetrics) {
    report.metrics.push_back({m, Lookup(all, m.name)});
  }
  PrintJson(report);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark's own machinery.
// ---------------------------------------------------------------------------

Topology TinyLeafSpine() {
  LeafSpineConfig config;
  config.num_spine = 2;
  config.num_leaf = 3;
  config.hosts_per_leaf = 2;
  config.switch_ports = 8;
  return std::move(MakeLeafSpine(config).value().topo);
}

// Digest of everything a tiny fabric converged to: clock, events, layer
// counters and every RTT.
std::string TinyDigest(bool traced) {
  Trace trace;
  SimulatedFabric fabric = MakeSimFabric(TinyLeafSpine(), 3);
  std::unique_ptr<FabricTracer> tracer;
  if (traced) {
    tracer = std::make_unique<FabricTracer>(fabric, &trace, kControllerHost);
  }
  DiscoveryConfig discovery;
  discovery.max_ports = 8;
  (void)fabric.BringUp(kControllerHost, MakeControllerConfig(3), discovery);
  const uint32_t hosts = static_cast<uint32_t>(fabric.host_count());
  PingBook book(fabric, MakePairs(hosts, hosts - 1, 3), 4);
  book.set_trace(traced ? &trace : nullptr);
  for (size_t p = 0; p < book.pair_count(); ++p) {
    for (uint32_t s = 0; s < 4; ++s) {
      fabric.sim().ScheduleAt(fabric.Now() + Us(10) * s, [&book, p, s] {
        book.Send(p, s, 1500);
      });
    }
  }
  fabric.Run();
  Outcome out;
  book.Collect(0, out);
  tracer.reset();
  std::string digest = std::to_string(fabric.Now()) + "|" + std::to_string(out.failed);
  for (const auto& [name, value] : SimCounters(fabric)) {
    digest += "|" + name + "=" + std::to_string(value);
  }
  for (double rtt : out.latency_us) {
    digest += "|" + std::to_string(rtt);
  }
  if (traced && trace.switch_ingress.calls == 0) {
    digest += "|proxies saw nothing";
  }
  return digest;
}

int SelfTest() {
  telemetry::SetEnabled(false);
  int failures = 0;
  // 1. The timing proxies pass packets through unchanged.
  if (TinyDigest(false) != TinyDigest(true)) {
    std::fprintf(stderr, "selftest: traced tiny fabric diverged from the plain one\n");
    ++failures;
  } else {
    std::printf("selftest: proxy pass-through ok\n");
  }
  // 2. fail_frac counts a host whose uplink is down before bring-up.
  auto make_topo = [] {
    Topology topo = TinyLeafSpine();
    const uint32_t victim = static_cast<uint32_t>(topo.host_count()) - 1;
    topo.SetLinkUp(topo.host_at(victim).link, false);
    return topo;
  };
  Outcome out = RunBringUp(make_topo, 3, 8, nullptr);
  if (!out.errors.empty() || out.attempted != 6 || out.failed != 1) {
    std::fprintf(stderr,
                 "selftest: forced failure miscounted: attempted %" PRIu64 " failed %" PRIu64
                 " errors %zu\n",
                 out.attempted, out.failed, out.errors.size());
    for (const std::string& e : out.errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    ++failures;
  } else {
    std::printf("selftest: forced bootstrap failure counted (1 of 6)\n");
  }
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fabric_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--scratch <dir>]\n       fabric_bench --selftest\nworkloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace dumbnet

int main(int argc, char** argv) {
  using namespace dumbnet;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--scratch" && has_value) {
      g_scratch_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (selftest) {
    return SelfTest();
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      return RunWorkload(w, seed, seconds, trace != 0);
    }
  }
  return Usage();
}
