#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace dumbnet {
namespace {

TEST(SimulatorTest, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Ms(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Ms(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Ms(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Ms(30));
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Ms(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(Ms(1), [&] {
    ++fired;
    sim.ScheduleAfter(Ms(1), [&] {
      ++fired;
      sim.ScheduleAfter(Ms(1), [&] { ++fired; });
    });
  });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), Ms(3));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.ScheduleAfter(Ms(1), [&] { ++fired; });
  sim.ScheduleAfter(Ms(2), [&] { ++fired; });
  sim.Cancel(h);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelAfterRunIsNoop) {
  Simulator sim;
  EventHandle h = sim.ScheduleAfter(Ms(1), [] {});
  sim.Run();
  sim.Cancel(h);  // must not blow up
  sim.ScheduleAfter(Ms(1), [] {});
  EXPECT_EQ(sim.Run(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Ms(5), [&] { ++fired; });
  sim.ScheduleAt(Ms(15), [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(Ms(10)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Ms(10));  // clock lands exactly on the deadline
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunStepsBounded) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Ms(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.RunSteps(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(SimulatorTest, TimeHelpers) {
  EXPECT_EQ(Us(1), 1000);
  EXPECT_EQ(Ms(1), 1000 * 1000);
  EXPECT_EQ(Sec(1), 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(ToSec(Sec(2)), 2.0);
  EXPECT_DOUBLE_EQ(ToMs(Ms(3)), 3.0);
  // 1500 bytes at 10 Gbps = 1.2 us.
  EXPECT_EQ(TransmitTimeNs(1500, 10.0), 1200);
}

TEST(SimulatorTest, ManyEventsStress) {
  Simulator sim;
  uint64_t fired = 0;
  for (int i = 0; i < 100000; ++i) {
    sim.ScheduleAt(Us(i % 997), [&] { ++fired; });
  }
  EXPECT_EQ(sim.Run(), 100000u);
  EXPECT_EQ(fired, 100000u);
}

// Regression: the old core kept every cancelled id in a lazily-probed list, so a
// cancel-per-ack workload grew memory without bound. The slot pool must stay
// bounded by the number of *outstanding* events, not the number ever scheduled.
TEST(SimulatorTest, CancelHeavyMemoryBounded) {
  Simulator sim;
  const uint64_t kTicks = 50000;
  const uint64_t kWindow = 64;
  std::vector<EventHandle> timers(kWindow);
  uint64_t fired = 0;
  std::function<void(uint64_t)> tick = [&](uint64_t i) {
    if (i >= kTicks) {
      return;
    }
    sim.Cancel(timers[i % kWindow]);  // the ack beat the timeout
    timers[i % kWindow] = sim.ScheduleAfter(Ms(5), [&fired] { ++fired; });
    sim.ScheduleAfter(Us(1), [&tick, i] { tick(i + 1); });
  };
  sim.ScheduleAt(0, [&tick] { tick(0); });
  sim.Run();
  // Outstanding at any instant: kWindow timeouts + one tick + <= Ms(5)/Us(1)
  // not-yet-cancelled timers in flight. Far below kTicks if cancellation reclaims.
  EXPECT_LT(sim.mem_stats().pool_slots, 2 * (kWindow + Ms(5) / Us(1)));
  EXPECT_EQ(sim.mem_stats().queued_events, 0u);
  EXPECT_EQ(sim.mem_stats().free_slots, sim.mem_stats().pool_slots);
}

TEST(SimulatorTest, TraceHookReportsEveryExecutedEvent) {
  Simulator sim;
  std::vector<std::pair<TimeNs, uint64_t>> trace;
  sim.SetTraceHook([&](TimeNs at, uint64_t seq) { trace.emplace_back(at, seq); });
  EventHandle doomed{};
  sim.ScheduleAt(Ms(2), [] {});
  sim.ScheduleAt(Ms(1), [&] {
    sim.ScheduleAfter(Us(10), [] {});
    doomed = sim.ScheduleAt(Ms(5), [] { FAIL() << "cancelled event ran"; });
    sim.ScheduleAt(Ms(3), [&] { sim.Cancel(doomed); });
  });
  EXPECT_EQ(sim.Run(), 4u);
  ASSERT_EQ(trace.size(), 4u);  // cancelled events never reach the hook
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].first, trace[i].first);
  }
  // Detach: no further callbacks.
  sim.SetTraceHook(nullptr);
  sim.ScheduleAt(Ms(10), [] {});
  sim.Run();
  EXPECT_EQ(trace.size(), 4u);
}

// A chain of deliveries whose seqs are burned up front (AllocSeq) but filed one
// at a time, each by its predecessor (ScheduleAtSeq) — the network's in-flight
// FIFO pattern — must replay the exact (at, seq) stream and handler order of
// scheduling every delivery at burn time, including ties with other events.
struct SeqRun {
  std::vector<std::pair<TimeNs, uint64_t>> trace;
  std::vector<std::string> order;
};

SeqRun RunDeliveryChain(bool file_late) {
  Simulator sim;
  SeqRun run;
  sim.SetTraceHook([&](TimeNs at, uint64_t seq) { run.trace.emplace_back(at, seq); });
  const std::vector<TimeNs> arrivals = {50, 100, 150, 151};
  std::vector<uint64_t> seqs(arrivals.size());
  std::function<void(size_t)> deliver = [&](size_t i) {
    run.order.push_back("D" + std::to_string(i));
    if (file_late && i + 1 < arrivals.size()) {
      sim.ScheduleAtSeq(arrivals[i + 1], seqs[i + 1], [&deliver, i] { deliver(i + 1); });
    }
  };
  sim.ScheduleAt(0, [&] {
    // Other events interleave with the chain at the same timestamps, on both
    // sides of each delivery's seq.
    sim.ScheduleAt(100, [&] { run.order.push_back("X100"); });
    for (size_t i = 0; i < arrivals.size(); ++i) {
      if (file_late) {
        seqs[i] = sim.AllocSeq();
        if (i == 0) {
          sim.ScheduleAtSeq(arrivals[0], seqs[0], [&deliver] { deliver(0); });
        }
      } else {
        sim.ScheduleAt(arrivals[i], [&deliver, i] { deliver(i); });
      }
      if (i == 0) {
        sim.ScheduleAt(50, [&] { run.order.push_back("X50"); });
      }
    }
    sim.ScheduleAt(150, [&] { run.order.push_back("X150"); });
  });
  sim.Run();
  return run;
}

TEST(SimulatorTest, ScheduleAtSeqReplaysBurnTimeOrder) {
  const SeqRun eager = RunDeliveryChain(false);
  const SeqRun late = RunDeliveryChain(true);
  EXPECT_EQ(late.trace, eager.trace);
  EXPECT_EQ(late.order, eager.order);
  EXPECT_EQ(eager.order, (std::vector<std::string>{"D0", "X50", "X100", "D1", "D2", "X150",
                                                   "D3"}));
}

TEST(SimulatorTest, ScheduleAtSeqSameTimeBatchIsFifoBySeq) {
  Simulator sim;
  std::vector<char> order;
  const uint64_t a = sim.AllocSeq();
  sim.ScheduleAt(Us(1), [&] { order.push_back('b'); });
  const uint64_t c = sim.AllocSeq();
  sim.ScheduleAt(Us(1), [&] { order.push_back('d'); });
  // Filed out of order, after a later-seq event is already queued.
  sim.ScheduleAtSeq(Us(1), c, [&] { order.push_back('c'); });
  sim.ScheduleAtSeq(Us(1), a, [&] { order.push_back('a'); });
  EXPECT_EQ(sim.mem_stats().queued_events, 4u);
  EXPECT_EQ(sim.Run(), 4u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
}

TEST(SimulatorTest, ScheduleAtSeqRewindsAfterEarlyStoppedRunUntil) {
  Simulator sim;
  std::vector<std::pair<TimeNs, char>> ran;
  const uint64_t early = sim.AllocSeq();
  sim.ScheduleAt(Us(10), [&] { ran.emplace_back(sim.Now(), 'x'); });
  // Stops with the Us(10) batch drained into the wheel's due list.
  sim.RunUntil(Us(5));
  ASSERT_EQ(sim.Now(), Us(5));
  // Below the wheel's position: takes the RewindAndRefile path.
  sim.ScheduleAtSeq(Us(7), early, [&] { ran.emplace_back(sim.Now(), 'a'); });
  // At the drained batch's time with a fresh seq: runs after it.
  const uint64_t fresh = sim.AllocSeq();
  sim.ScheduleAtSeq(Us(10), fresh, [&] { ran.emplace_back(sim.Now(), 'y'); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(ran, (std::vector<std::pair<TimeNs, char>>{{Us(7), 'a'}, {Us(10), 'x'}, {Us(10), 'y'}}));
}

}  // namespace
}  // namespace dumbnet
