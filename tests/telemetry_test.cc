// Telemetry subsystem tests: metrics registry snapshot/diff, log-bucketed
// histogram accuracy against exact ground truth, flight-recorder ring
// semantics and dump round-trips, DN_LOG_KV capture, in-band path provenance
// (including an injected misroute), and thread-safety of the counters and the
// recorder under concurrent writer threads, as in the wire runtime's one thread
// per node (run the tsan preset to get the full data-race check).
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fabric.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/provenance.h"
#include "src/telemetry/telemetry.h"
#include "src/topo/generators.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace dumbnet {
namespace {

using telemetry::Component;
using telemetry::EventKind;
using telemetry::FlightRecorder;
using telemetry::MetricsRegistry;
using telemetry::TraceEvent;

TraceEvent MakeEvent(uint64_t seq) {
  TraceEvent ev;
  ev.ts_ns = static_cast<int64_t>(seq * 100);
  ev.id = seq;
  ev.arg = seq * 2;
  ev.component = Component::kSwitch;
  ev.kind = EventKind::kForward;
  return ev;
}

// --- Metrics registry ---------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndSnapshots) {
  auto& reg = MetricsRegistry::Global();
  telemetry::Counter* c = reg.GetCounter("test.reg.counter");
  telemetry::Gauge* g = reg.GetGauge("test.reg.gauge");
  c->Reset();
  g->Reset();

  // Find-or-create returns stable pointers.
  EXPECT_EQ(c, reg.GetCounter("test.reg.counter"));
  EXPECT_EQ(g, reg.GetGauge("test.reg.gauge"));

  c->Inc();
  c->Inc(41);
  g->Set(7);
  g->Add(-3);

  auto snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("test.reg.counter"), 42.0);
  EXPECT_DOUBLE_EQ(snap.Value("test.reg.gauge"), 4.0);
  EXPECT_DOUBLE_EQ(snap.Value("test.reg.absent"), 0.0);
  EXPECT_EQ(snap.Find("test.reg.absent"), nullptr);
  ASSERT_NE(snap.Find("test.reg.counter"), nullptr);
}

TEST(MetricsRegistry, DiffSubtractsCountersKeepsGauges) {
  auto& reg = MetricsRegistry::Global();
  telemetry::Counter* c = reg.GetCounter("test.diff.counter");
  telemetry::Gauge* g = reg.GetGauge("test.diff.gauge");
  telemetry::HistogramMetric* h = reg.GetHistogram("test.diff.hist");
  c->Reset();
  g->Reset();
  h->Reset();

  c->Inc(10);
  g->Set(100);
  h->Record(1.0);
  auto before = reg.Snapshot();

  c->Inc(5);
  g->Set(-8);
  h->Record(2.0);
  h->Record(3.0);
  auto after = reg.Snapshot();

  auto delta = Diff(before, after);
  EXPECT_DOUBLE_EQ(delta.Value("test.diff.counter"), 5.0);   // 15 - 10
  EXPECT_DOUBLE_EQ(delta.Value("test.diff.gauge"), -8.0);    // point-in-time
  EXPECT_DOUBLE_EQ(delta.Value("test.diff.hist"), 2.0);      // 3 - 1 samples
}

TEST(MetricsRegistry, JsonExportContainsAllSections) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test.json.counter")->Reset();
  reg.GetCounter("test.json.counter")->Inc(3);
  reg.GetHistogram("test.json.hist")->Reset();
  reg.GetHistogram("test.json.hist")->Record(5.0);

  std::ostringstream os;
  reg.WriteJson(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
}

TEST(MetricsRegistry, RuntimeDisableStopsMacroRecording) {
  auto& reg = MetricsRegistry::Global();
  telemetry::Counter* c = reg.GetCounter("test.disable.counter");
  c->Reset();
  DN_COUNTER_INC("test.disable.counter");
  telemetry::SetEnabled(false);
  DN_COUNTER_INC("test.disable.counter");
  DN_COUNTER_INC("test.disable.counter");
  telemetry::SetEnabled(true);
  DN_COUNTER_INC("test.disable.counter");
  EXPECT_EQ(c->value(), 2u);
}

// --- Log-bucketed histogram accuracy ------------------------------------------------

// The registry's host counters agree with the stats fabricbench reports: a
// failover that starves a k=1 entry both rebinds (PathTable) and reroutes
// (HostAgent), and each lands under its own name.
TEST(MetricsRegistry, HostRerouteCountersMatchAgentStats) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  HostAgentConfig config;
  config.k_paths = 1;
  const auto before = MetricsRegistry::Global().Snapshot();
  SimulatedFabric fabric(std::move(tb.value().topo), config);
  fabric.BringUpAdopted(/*controller_host=*/25);
  const uint64_t dst = fabric.agent(12).mac();
  ASSERT_TRUE(fabric.agent(0).Send(dst, /*flow_id=*/1, DataPayload{}).ok());
  fabric.Run();
  auto route = fabric.agent(0).path_table().RouteFor(dst, /*flow_id=*/1);
  ASSERT_TRUE(route.ok());
  const uint32_t first = fabric.topo().SwitchByUid(route.value()->uid_path[0]).value();
  const LinkIndex cut = fabric.topo().LinkAtPort(first, route.value()->tags.front());
  ASSERT_NE(cut, kInvalidLink);
  fabric.topo().SetLinkUp(cut, false);
  fabric.Run();
  const auto delta = Diff(before, MetricsRegistry::Global().Snapshot());

  uint64_t reroutes = 0;
  uint64_t rebinds = 0;
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    reroutes += fabric.agent(h).stats().reroutes;
    rebinds += fabric.agent(h).path_table().stats().rebinds;
  }
  EXPECT_GT(reroutes, 0u);
  EXPECT_GT(rebinds, 0u);
  EXPECT_DOUBLE_EQ(delta.Value("host.reroutes"), static_cast<double>(reroutes));
  EXPECT_DOUBLE_EQ(delta.Value("host.rebinds"), static_cast<double>(rebinds));
}

TEST(LogHistogramAccuracy, PercentilesMatchExactWithinBound) {
  // Deterministic long-tailed stream spanning several binary decades.
  Rng rng(12345);
  SampleSet exact;
  LogHistogram hist;
  telemetry::HistogramMetric metric;
  for (int i = 0; i < 20000; ++i) {
    double u = rng.UniformDouble();
    double x = 0.05 + 80.0 * u * u * u;  // heavy right tail, range ~[0.05, 80]
    exact.Add(x);
    hist.Add(x);
    metric.Record(x);
  }
  const double bound = hist.RelativeErrorBound();
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    double truth = exact.Percentile(p);
    double est = hist.Percentile(p);
    EXPECT_NEAR(est, truth, truth * 2.0 * bound)
        << "p" << p << ": exact=" << truth << " log-bucketed=" << est;
  }
  // The telemetry metric wraps the very same collector: identical percentiles.
  LogHistogram via_metric = metric.Snapshot();
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(via_metric.Percentile(p), hist.Percentile(p));
  }
  // min/max are exact regardless of bucketing.
  EXPECT_DOUBLE_EQ(hist.min(), exact.min());
  EXPECT_DOUBLE_EQ(hist.max(), exact.max());
  EXPECT_EQ(hist.count(), exact.count());
}

TEST(LogHistogramAccuracy, NonPositiveSamplesAndFractionBelow) {
  LogHistogram hist;
  hist.Add(0.0);
  hist.Add(-3.0);
  hist.Add(1.0);
  hist.Add(2.0);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.min(), -3.0);
  EXPECT_DOUBLE_EQ(hist.max(), 2.0);
  EXPECT_NEAR(hist.FractionBelow(0.5), 0.5, 1e-9);  // the two non-positives
  EXPECT_NEAR(hist.FractionBelow(100.0), 1.0, 1e-9);
}

// --- Flight recorder ----------------------------------------------------------------

TEST(FlightRecorder, RingWrapsAndKeepsNewestInOrder) {
  auto& fr = FlightRecorder::Global();
  fr.SetCapacity(8);
  fr.Clear();
  for (uint64_t i = 0; i < 20; ++i) {
    fr.Record(MakeEvent(i));
  }
  EXPECT_EQ(fr.size(), 8u);
  EXPECT_EQ(fr.total_recorded(), 20u);

  std::vector<TraceEvent> snap = fr.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].id, 12 + i) << "oldest-first after wrap";
  }
  std::vector<TraceEvent> last3 = fr.LastN(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].id, 17u);
  EXPECT_EQ(last3[2].id, 19u);

  fr.SetCapacity(64 * 1024);  // restore the default for other tests
}

TEST(FlightRecorder, TextDumpRoundTrips) {
  auto& fr = FlightRecorder::Global();
  fr.SetCapacity(16);
  TraceEvent named = MakeEvent(1);
  named.component = Component::kLog;
  named.kind = EventKind::kLogEvent;
  named.name = "host.link_event";
  fr.Record(named);
  fr.Record(MakeEvent(2));

  std::ostringstream os;
  telemetry::WriteTextDump(os, fr.Snapshot());
  std::istringstream is(os.str());
  telemetry::TraceDump dump;
  std::string error;
  ASSERT_TRUE(telemetry::TraceDump::Load(is, &dump, &error)) << error;
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.events[0].component, Component::kLog);
  EXPECT_EQ(dump.events[0].kind, EventKind::kLogEvent);
  ASSERT_NE(dump.events[0].name, nullptr);
  EXPECT_STREQ(dump.events[0].name, "host.link_event");
  EXPECT_EQ(dump.events[1].id, 2u);
  EXPECT_EQ(dump.events[1].component, Component::kSwitch);

  std::istringstream bad("not a flight recorder dump\n");
  telemetry::TraceDump bad_dump;
  EXPECT_FALSE(telemetry::TraceDump::Load(bad, &bad_dump, &error));
  EXPECT_FALSE(error.empty());

  fr.SetCapacity(64 * 1024);
}

TEST(FlightRecorder, ChromeTraceListsEveryEvent) {
  std::vector<TraceEvent> events;
  for (uint64_t i = 0; i < 3; ++i) {
    events.push_back(MakeEvent(i));
  }
  std::ostringstream os;
  telemetry::WriteChromeTrace(os, events);
  std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  size_t n = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\": \"i\"", pos)) != std::string::npos; ++pos) {
    ++n;
  }
  EXPECT_EQ(n, 3u);
}

TEST(FlightRecorder, DumpOnFailureIsSafeOnEmptyRing) {
  auto& fr = FlightRecorder::Global();
  fr.Clear();
  fr.DumpOnFailure("unit test, empty ring");  // must not crash
  fr.Record(MakeEvent(7));
  fr.DumpOnFailure("unit test, one event", 64);
}

TEST(FlightRecorder, LogCaptureRecordsKvEvents) {
  auto& fr = FlightRecorder::Global();
  FlightRecorder::InstallLogCapture();
  fr.Clear();
  DN_LOG_KV(kDebug, "test.kv_event").Kv("a", 1).Kv("b", 2);
  std::vector<TraceEvent> snap = fr.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].component, Component::kLog);
  EXPECT_EQ(snap[0].kind, EventKind::kLogEvent);
  ASSERT_NE(snap[0].name, nullptr);
  EXPECT_STREQ(snap[0].name, "test.kv_event");
  SetLogKvSink(nullptr);
  fr.Clear();
}

// --- Concurrency (meaningful under -DDUMBNET_SANITIZE=thread) -----------------------

// Runs fn(i) for every i in [0, n) spread over four threads, and joins them.
void RunOnFourThreads(size_t n, const std::function<void(size_t)>& fn) {
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kThreads) {
        fn(i);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
}

TEST(TelemetryConcurrency, CountersAreRaceFreeAcrossThreads) {
  auto& reg = MetricsRegistry::Global();
  telemetry::Counter* c = reg.GetCounter("test.concurrent.counter");
  telemetry::Gauge* g = reg.GetGauge("test.concurrent.gauge");
  c->Reset();
  g->Reset();

  constexpr size_t kIters = 20000;
  RunOnFourThreads(kIters, [&](size_t) {
    // Registry lookups and metric updates race against each other on purpose.
    MetricsRegistry::Global().GetCounter("test.concurrent.counter")->Inc();
    g->Add(1);
    DN_COUNTER_INC("test.concurrent.macro");
  });
  EXPECT_EQ(c->value(), kIters);
  EXPECT_EQ(g->value(), static_cast<int64_t>(kIters));
  EXPECT_EQ(reg.GetCounter("test.concurrent.macro")->value(), kIters);
  reg.GetCounter("test.concurrent.macro")->Reset();
}

TEST(TelemetryConcurrency, RecorderAcceptsConcurrentWriters) {
  auto& fr = FlightRecorder::Global();
  fr.SetCapacity(1024);
  fr.Clear();  // SetCapacity clears the ring but not the lifetime total
  RunOnFourThreads(5000, [&](size_t i) { fr.Record(MakeEvent(i)); });
  EXPECT_EQ(fr.size(), 1024u);
  EXPECT_EQ(fr.total_recorded(), 5000u);
  fr.SetCapacity(64 * 1024);
}

// --- Path provenance ----------------------------------------------------------------

TEST(PathProvenance, MatchHelper) {
  telemetry::PathProvenance p;
  EXPECT_FALSE(p.armed());
  EXPECT_TRUE(telemetry::ProvenanceMatches(p));  // unarmed always matches

  p.Arm({0xA, 0xB});
  p.AddHop({0xA, 1, 2});
  p.AddHop({0xB, 3, 0});
  EXPECT_TRUE(telemetry::ProvenanceMatches(p));

  p.Assign({0xA, 0xB}, {{0xA, 1, 2}, {0xC, 3, 0}});
  EXPECT_FALSE(telemetry::ProvenanceMatches(p));
  EXPECT_NE(telemetry::DescribeProvenance(p).find("promised="), std::string::npos);

  p.Assign({0xA, 0xB}, {{0xA, 1, 2}});
  EXPECT_FALSE(telemetry::ProvenanceMatches(p)) << "short path must not match";
}

TEST(PathProvenance, FabricRunIsDivergenceFree) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  SimulatedFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(/*controller_host=*/25);

  uint64_t received = 0;
  fabric.agent(1).SetDataHandler(
      [&](const Packet&, const DataPayload&) { ++received; });
  for (int i = 0; i < 5; ++i) {
    DataPayload d;
    d.bytes = 200;
    ASSERT_TRUE(fabric.agent(0).Send(fabric.agent(1).mac(), /*flow_id=*/9, d).ok());
  }
  fabric.Run();
  EXPECT_EQ(received, 5u);
  EXPECT_EQ(fabric.agent(1).stats().path_divergence, 0u);
}

TEST(PathProvenance, InjectedMisrouteRaisesDivergence) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  SimulatedFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(/*controller_host=*/25);

  // Warm host 0's path cache toward host 12 (different leaf, multi-hop path).
  const uint64_t dst = fabric.agent(12).mac();
  DataPayload warm;
  warm.bytes = 100;
  ASSERT_TRUE(fabric.agent(0).Send(dst, /*flow_id=*/1, warm).ok());
  fabric.Run();
  ASSERT_EQ(fabric.agent(12).stats().path_divergence, 0u);

  auto route = fabric.agent(0).path_table().RouteFor(dst, /*flow_id=*/1);
  ASSERT_TRUE(route.ok());
  ASSERT_GE(route.value()->uid_path.size(), 2u);

  auto before = MetricsRegistry::Global().Snapshot();

  // The misroute: send along route's real tags but promise a tampered UID
  // sequence — as if the fabric had taken a different path than the host was
  // promised. The receiver's verification must flag it.
  DataPayload d;
  d.flow_id = 2;
  d.bytes = 100;
  Packet pkt = MakeDumbNetPacket(fabric.agent(0).mac(), dst, route.value()->tags, d);
  std::vector<uint64_t> promised = route.value()->uid_path;
  promised[0] ^= 0x1;  // not the switch the packet will traverse
  pkt.provenance.Arm(promised);
  fabric.net().SendFromHost(0, pkt);
  fabric.Run();

  EXPECT_EQ(fabric.agent(12).stats().path_divergence, 1u);
  auto delta = Diff(before, MetricsRegistry::Global().Snapshot());
  EXPECT_DOUBLE_EQ(delta.Value("host.path_divergence"), 1.0);
}

}  // namespace
}  // namespace dumbnet
