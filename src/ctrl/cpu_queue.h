// CpuQueue: a single-server FIFO CPU of the controller host (paper Section 4.1:
// its per-message cost paces discovery). Run(cost, fn) runs `fn` once `cost` of
// CPU time after every earlier job. Each job burns its seq at enqueue and is
// filed with it (ScheduleAtSeq), so it runs at exactly the (time, seq) one
// ScheduleAt per job gives it, but only the head and the jobs tying with it sit
// in the wheel. A tie (a zero-cost job behind a busy CPU: discovery's probe
// expiry) is filed with its job when that becomes the head: once the job runs,
// the batch at their time is formed (as in Network::Transmit).
#ifndef DUMBNET_SRC_CTRL_CPU_QUEUE_H_
#define DUMBNET_SRC_CTRL_CPU_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>

#include "src/sim/event_fn.h"
#include "src/sim/footprint.h"
#include "src/sim/simulator.h"

namespace dumbnet {

class CpuQueue {
 public:
  // Each enqueue declares a commuting write of footprint entity (kCtrlCpu, cell).
  CpuQueue(Simulator* sim, uint64_t cell) : sim_(sim), cell_(cell) {}
  CpuQueue(const CpuQueue&) = delete;
  CpuQueue& operator=(const CpuQueue&) = delete;

  template <typename Fn>
  void Run(TimeNs cost, Fn fn) {
    static_assert(EventFn::kStoresInline<Fn>, "a CPU job must fit EventFn inline");
    DN_FP_COMMUTES(kCtrlCpu, cell_,
                   "single-server fifo cpu; service order shifts latency only");
    const TimeNs finish = std::max(sim_->Now(), free_) + cost;
    if (!head_) {  // idle: this job is the head
      head_ = std::move(fn);
      sim_->ScheduleAt(finish, [this] { RunHead(); });
    } else if (jobs_.empty() && finish == free_) {
      sim_->ScheduleAt(finish, std::move(fn));  // ties with the filed head
    } else {
      jobs_.push_back(Job{finish, sim_->AllocSeq(), std::move(fn)});
    }
    free_ = finish;
  }

 private:
  struct Job {
    TimeNs finish = 0;
    uint64_t seq = 0;
    EventFn fn;
  };

  // Files the next head with its ties, later than now, so before their batch.
  void RunHead() {
    EventFn fn = std::move(head_);
    if (!jobs_.empty()) {
      const TimeNs at = jobs_.front().finish;
      head_ = std::move(jobs_.front().fn);
      sim_->ScheduleAtSeq(at, jobs_.front().seq, [this] { RunHead(); });
      for (jobs_.pop_front(); !jobs_.empty() && jobs_.front().finish == at;
           jobs_.pop_front()) {
        sim_->ScheduleAtSeq(at, jobs_.front().seq, std::move(jobs_.front().fn));
      }
    }
    fn();
  }

  Simulator* sim_;
  uint64_t cell_;
  TimeNs free_ = 0;       // when the last job queued finishes
  EventFn head_;          // the filed head's job; empty while none is pending
  std::deque<Job> jobs_;  // not yet filed, in (finish, seq) order
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_CTRL_CPU_QUEUE_H_
