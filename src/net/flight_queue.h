// FlightQueue: the packets on the wire of one link direction, in arrival order,
// and the network's packet-node pool they share with packets waiting in events.
//
// Arrivals on one link direction strictly increase, so a direction only needs
// its *earliest* delivery in the timer wheel: the rest wait here, and each
// delivery files the next (DESIGN.md §8, "Notification storms").
//
// Each entry lives in a node taken from the Pool that every queue of one network
// shares; a delivered entry's node goes straight back to it. Memory therefore
// tracks the packets in flight fabric-wide instead of keeping each direction's
// deepest burst reserved. Nodes never move, so a reference to front() stays
// valid across pushes (a delivery handler may transmit on the same direction).
//
// The same pool parks packets that wait out a forwarding or processing delay
// (a switch's forward and flood events, a host's send and deliver events): a
// PooledPacket is one pointer to its node, so those events fit EventFn's
// inline buffer instead of heap-allocating a closure that carries a Packet
// (DESIGN.md §8, "Packets: 136 bytes, one pool").
#ifndef DUMBNET_SRC_NET_FLIGHT_QUEUE_H_
#define DUMBNET_SRC_NET_FLIGHT_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/analysis/contracts.h"
#include "src/net/packet.h"
#include "src/sim/time.h"

namespace dumbnet {

class PooledPacket;

class FlightQueue {
 public:
  struct Entry {
    TimeNs arrival = 0;
    uint64_t seq = 0;  // the delivery event's seq, burned at transmit
    Packet pkt;
  };

  class Pool;

  struct Node {
    // Raw storage (`= default` would be deleted): FlightQueue's Push/Pop and
    // the Pool's Park/Unpark construct and destroy the entry in place.
    Node() {}   // NOLINT(modernize-use-equals-default)
    ~Node() {}  // NOLINT(modernize-use-equals-default)
    union {
      Node* next = nullptr;  // while spare or queued
      Pool* owner;           // while a PooledPacket holds it
    };
    union {
      Entry entry;
    };
  };

  // Owns every node of one network's queues and parked packets. Not
  // thread-safe: one simulator thread only. Heap-only: the owner gives it up
  // with Release(), and a pool that still has parked packets out (their events
  // outlive the network when the simulator is destroyed last) frees itself
  // when the last one comes back.
  class Pool {
   public:
    struct Deleter {
      void operator()(Pool* pool) const { pool->Release(); }
    };
    using Ptr = std::unique_ptr<Pool, Deleter>;
    static Ptr Create() { return Ptr(new Pool()); }

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    bool HasSpare() const { return spare_ != nullptr; }
    // Adds a chunk of nodes to the spare list: the only allocation a queue
    // or a parked packet makes.
    void Grow() {
      constexpr uint32_t kChunk = 16;
      chunks_.push_back(std::make_unique<Node[]>(kChunk));
      for (uint32_t i = 0; i < kChunk; ++i) {
        Give(&chunks_.back()[i]);
      }
      nodes_ += kChunk;
    }

    // Parks `pkt` in a node until the returned handle lets go of it. Grows
    // the pool first when no node is spare.
    inline PooledPacket Park(Packet&& pkt);

    size_t nodes() const { return nodes_; }    // ever allocated
    size_t spare() const { return spares_; }   // idle, ready to take
    size_t parked() const { return parked_; }  // held by PooledPackets

   private:
    friend class FlightQueue;
    friend class PooledPacket;
    Pool() = default;
    ~Pool() = default;

    Node* Take() {
      assert(spare_ != nullptr && "Pool::Take without a spare node; Grow() first");
      Node* n = spare_;
      spare_ = n->next;
      n->next = nullptr;
      --spares_;
      return n;
    }
    void Give(Node* n) {
      n->next = spare_;
      spare_ = n;
      ++spares_;
    }
    // A parked packet's node comes back.
    void Unpark(Node* n) {
      n->entry.~Entry();
      Give(n);
      --parked_;
      if (released_ && parked_ == 0) {
        delete this;
      }
    }
    void Release() {
      released_ = true;
      if (parked_ == 0) {
        delete this;
      }
    }

    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node* spare_ = nullptr;
    size_t nodes_ = 0;
    size_t spares_ = 0;
    size_t parked_ = 0;
    bool released_ = false;
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

// Owning handle to a packet parked in a pool node: one pointer, move-only.
// Destroying it (the event ran, or was destroyed unrun) destroys the packet and
// returns the node to the pool it came from, on the simulator thread that owns
// that pool.
class PooledPacket {
 public:
  PooledPacket(PooledPacket&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  PooledPacket& operator=(PooledPacket&&) = delete;
  PooledPacket(const PooledPacket&) = delete;
  PooledPacket& operator=(const PooledPacket&) = delete;
  ~PooledPacket() {
    if (node_ != nullptr) {
      node_->owner->Unpark(node_);
    }
  }

  Packet& operator*() const { return node_->entry.pkt; }

 private:
  friend class FlightQueue::Pool;
  explicit PooledPacket(FlightQueue::Node* node) : node_(node) {}
  FlightQueue::Node* node_;  // null once moved from
};

PooledPacket FlightQueue::Pool::Park(Packet&& pkt) {
  if (spare_ == nullptr) {
    DN_HOT_EXEMPT("storage growth: a chunk of packet nodes");
    Grow();
  }
  Node* n = Take();
  ::new (&n->entry) Entry{0, 0, std::move(pkt)};
  n->owner = this;
  ++parked_;
  return PooledPacket(n);
}

}  // namespace dumbnet

#endif  // DUMBNET_SRC_NET_FLIGHT_QUEUE_H_
