// Churn audit bench: failover-latency CDF under an adversarial flapping
// schedule (src/chaos), plus the packets blackholed into dead or gray links
// while the control plane catches up.
//
// No direct paper figure — this is the adversarial companion to Figure 11's
// single-cut failover: instead of one clean link cut, links flap with
// exponential dwell times, one link turns gray (lossy), and one switch takes a
// correlated outage. The latency measured is virtual time from a link-down
// event's origin to each host learning about it (the window in which that host
// can still bind new flows onto a dead path).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/chaos.h"
#include "src/core/fabric.h"
#include "src/topo/generators.h"
#include "src/util/rng.h"

using namespace dumbnet;

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("Churn audit — failover-latency CDF under flapping links",
                "adversarial companion to Figure 11 (no single paper number)");

  auto tb = MakePaperTestbed();
  SimulatedFabric fabric(std::move(tb.value().topo));

  std::vector<double> latency_us;
  for (uint32_t h = 0; h < static_cast<uint32_t>(fabric.host_count()); ++h) {
    HostAgent* agent = &fabric.agent(h);
    agent->SetLinkEventHook([agent, &latency_us](const LinkEventPayload& ev,
                                                 bool /*from_fabric*/) {
      if (!ev.up) {
        latency_us.push_back(static_cast<double>(agent->sim().Now() - ev.origin_time) /
                             1000.0);
      }
    });
  }
  fabric.BringUpAdopted(25);

  chaos::ChaosConfig config;
  config.seed = 1;
  config.horizon = args.quick ? Ms(60) : Ms(200);
  config.flap.links = 3;
  config.gray.links = 1;
  config.outage.enabled = true;
  chaos::ChaosSchedule sched = chaos::GenerateSchedule(fabric.topo(), config);

  const uint64_t blackholed_before =
      fabric.net().stats().dropped_link_down + fabric.net().stats().dropped_gray;

  // Two fresh flows at every churn boundary keep the data plane exposed to the
  // current failure pattern (same idiom as dumbnet-fuzz).
  Rng traffic(config.seed);
  uint64_t flow = 1;
  chaos::RunHooks hooks;
  hooks.on_boundary = [&](TimeNs) {
    const uint32_t hosts = static_cast<uint32_t>(fabric.host_count());
    for (int i = 0; i < 2; ++i) {
      const uint32_t src = static_cast<uint32_t>(traffic.UniformInt(hosts));
      uint32_t dst = static_cast<uint32_t>(traffic.UniformInt(hosts - 1));
      if (dst >= src) {
        ++dst;
      }
      (void)fabric.agent(src).Send(fabric.agent(dst).mac(), flow++, DataPayload{});
    }
  };
  chaos::RunSchedule(fabric, sched, hooks);

  const uint64_t blackholed = fabric.net().stats().dropped_link_down +
                              fabric.net().stats().dropped_gray - blackholed_before;

  std::sort(latency_us.begin(), latency_us.end());
  const double p50 = Percentile(latency_us, 0.50);
  const double p90 = Percentile(latency_us, 0.90);
  const double p99 = Percentile(latency_us, 0.99);
  const double max = latency_us.empty() ? 0.0 : latency_us.back();

  std::printf("schedule: %zu actions over %lld ms (%zu links touched)\n",
              sched.actions.size(),
              static_cast<long long>(config.horizon / Ms(1)),
              sched.TouchedLinks().size());
  std::printf("failover notifications observed: %zu (host x down-event pairs)\n",
              latency_us.size());
  std::printf("latency CDF: p50 %.1f us | p90 %.1f us | p99 %.1f us | max %.1f us\n",
              p50, p90, p99, max);
  std::printf("packets blackholed into dead/gray links: %llu\n",
              static_cast<unsigned long long>(blackholed));

  bench::JsonReporter report;
  bench::JsonReporter::Params params = {
      {"horizon_ms", std::to_string(config.horizon / Ms(1))},
      {"flap_links", std::to_string(config.flap.links)}};
  report.Add("churn_failover", "failover_p50", p50, "us", params);
  report.Add("churn_failover", "failover_p99", p99, "us", params);
  report.Add("churn_failover", "notifications", static_cast<double>(latency_us.size()),
             "count", params);
  report.WriteTo(args.json_path);
  bench::WriteMetricsJson(args.metrics_path);
  return 0;
}
