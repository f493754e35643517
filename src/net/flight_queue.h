// FlightQueue: the packets on the wire of one link direction, in arrival order.
//
// Arrivals on one link direction strictly increase, so a direction only needs
// its *earliest* delivery in the timer wheel: the rest wait here, and each
// delivery files the next (DESIGN.md §8, "Notification storms").
//
// Each entry lives in a node taken from a Pool that every queue of one shard
// shares; a delivered entry's node goes straight back to it. Memory therefore
// tracks the packets in flight fabric-wide instead of keeping each direction's
// deepest burst reserved. Nodes never move, so a reference to front() stays
// valid across pushes (a delivery handler may transmit on the same direction).
#ifndef DUMBNET_SRC_NET_FLIGHT_QUEUE_H_
#define DUMBNET_SRC_NET_FLIGHT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace dumbnet {

class FlightQueue {
 public:
  struct Entry {
    TimeNs arrival = 0;
    uint64_t seq = 0;  // the delivery event's seq, burned at transmit
    Packet pkt;
  };

  struct Node {
    // Raw storage (`= default` would be deleted): FlightQueue constructs and
    // destroys the entry in place.
    Node() {}   // NOLINT(modernize-use-equals-default)
    ~Node() {}  // NOLINT(modernize-use-equals-default)
    Node* next = nullptr;
    union {
      Entry entry;
    };
  };

  // Owns every node of one shard's queues. Not thread-safe: one shard only.
  class Pool {
   public:
    bool HasSpare() const { return spare_ != nullptr; }
    // Adds a chunk of nodes to the spare list: the only allocation a queue
    // makes.
    void Grow() {
      constexpr uint32_t kChunk = 16;
      chunks_.push_back(std::make_unique<Node[]>(kChunk));
      for (uint32_t i = 0; i < kChunk; ++i) {
        Give(&chunks_.back()[i]);
      }
    }

   private:
    friend class FlightQueue;
    Node* Take() {
      assert(spare_ != nullptr && "FlightQueue::Push without a spare node; Grow() first");
      Node* n = spare_;
      spare_ = n->next;
      n->next = nullptr;
      return n;
    }
    void Give(Node* n) {
      n->next = spare_;
      spare_ = n;
    }

    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node* spare_ = nullptr;
  };

  FlightQueue() = default;
  FlightQueue(FlightQueue&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)), tail_(std::exchange(other.tail_, nullptr)) {}
  FlightQueue& operator=(FlightQueue&&) = delete;
  FlightQueue(const FlightQueue&) = delete;
  FlightQueue& operator=(const FlightQueue&) = delete;
  // Destroys the entries still queued. The nodes belong to the pool, which
  // must outlive the queue.
  ~FlightQueue() {
    for (Node* n = head_; n != nullptr; n = n->next) {
      n->entry.~Entry();
    }
  }

  bool empty() const { return head_ == nullptr; }

  Entry& front() {
    assert(!empty());
    return head_->entry;
  }
  TimeNs back_arrival() const {
    assert(!empty());
    return tail_->entry.arrival;
  }

  // Precondition: pool.HasSpare(), so Push never allocates.
  void Push(Pool& pool, TimeNs arrival, uint64_t seq, Packet&& pkt) {
    Node* n = pool.Take();
    ::new (&n->entry) Entry{arrival, seq, std::move(pkt)};
    if (tail_ == nullptr) {
      head_ = n;
    } else {
      tail_->next = n;
    }
    tail_ = n;
  }

  void Pop(Pool& pool) {
    assert(!empty());
    Node* n = head_;
    head_ = n->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    n->entry.~Entry();
    pool.Give(n);
  }

 private:
  Node* head_ = nullptr;  // null <=> empty
  Node* tail_ = nullptr;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_NET_FLIGHT_QUEUE_H_
