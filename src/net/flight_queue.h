// One buffer per packet: the pooled packet bodies, the handles that share
// them, and the in-flight FIFO of one link direction.
//
// A packet lives in one PacketPool body from its first transmit to its last
// delivery. Everything that holds it for a while passes an 8-byte
// PooledPacket: a switch's forward and flood events, a host's send and deliver
// events, and the descriptors of the link FIFOs. A flood's copies share one
// reference-counted body; writes go through PooledPacket::Mutable(), which
// clones a shared body first (DESIGN.md §8, "Packets: one body, many
// handles").
//
// Arrivals on one link direction strictly increase, so a direction only needs
// its *earliest* delivery in the timer wheel: the rest wait in its FlightQueue,
// and each delivery files the next (DESIGN.md §8, "Notification storms"). A
// queued packet is a 32-byte descriptor {next, arrival, seq, handle} from the
// network's DescriptorPool. Descriptors never move, so a reference to front()
// stays valid across pushes (a delivery handler may transmit on the same
// direction).
//
// Both pools grow in chunks and never shrink, and a node that comes back goes
// straight to the spare list: memory tracks the packets in flight fabric-wide.
#ifndef DUMBNET_SRC_NET_FLIGHT_QUEUE_H_
#define DUMBNET_SRC_NET_FLIGHT_QUEUE_H_

#include <algorithm>
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

class PacketPool;
class PooledPacket;

// A free list of `Node`s (each with a `next` link used while spare), grown
// `kChunk` nodes at a time and never shrunk. Counts nodes handed out, and
// their high-water mark.
template <typename Node>
class ChunkedFreeList {
 public:
  static constexpr uint32_t kChunk = 16;

  bool HasSpare() const { return spare_ != nullptr; }
  // Adds a chunk of nodes to the spare list: the only allocation the pool
  // makes.
  void Grow() {
    chunks_.push_back(std::make_unique<Node[]>(kChunk));
    for (uint32_t i = 0; i < kChunk; ++i) {
      Give(&chunks_.back()[i]);
    }
    nodes_ += kChunk;
  }
  Node* Take() {
    assert(spare_ != nullptr && "Take without a spare node; Grow() first");
    Node* n = spare_;
    spare_ = n->next;
    n->next = nullptr;
    --spares_;
    peak_ = std::max(peak_, live());
    return n;
  }
  void Give(Node* n) {
    n->next = spare_;
    spare_ = n;
    ++spares_;
  }

  size_t nodes() const { return nodes_; }           // ever allocated
  size_t spare() const { return spares_; }          // idle, ready to take
  size_t live() const { return nodes_ - spares_; }  // taken, not yet given back
  size_t peak() const { return peak_; }             // high-water mark of live()

  // Calls `f(node)` on every node ever allocated, spare or taken.
  template <typename F>
  void ForEachNode(F&& f) const {
    for (const std::unique_ptr<Node[]>& chunk : chunks_) {
      for (uint32_t i = 0; i < kChunk; ++i) {
        f(chunk[i]);
      }
    }
  }

 private:
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* spare_ = nullptr;
  size_t nodes_ = 0;
  size_t spares_ = 0;
  size_t peak_ = 0;
};

// The packet bodies of one network. Not thread-safe: one simulator thread
// only. Heap-only: the owner gives it up with Release(), and a pool that
// still has bodies out (their events outlive the network when the simulator
// is destroyed last) frees itself when the last one comes back.
class PacketPool {
 public:
  struct Body {
    // Raw storage (`= default` would be deleted): Park and Unpark construct
    // and destroy the packet in place.
    Body() {}   // NOLINT(modernize-use-equals-default)
    ~Body() {}  // NOLINT(modernize-use-equals-default)
    union {
      Body* next = nullptr;  // while spare
      PacketPool* owner;     // while a PooledPacket holds it
    };
    uint32_t refs = 0;  // handles to this body
    union {
      Packet pkt;
    };
  };

  struct Deleter {
    void operator()(PacketPool* pool) const { pool->Release(); }
  };
  using Ptr = std::unique_ptr<PacketPool, Deleter>;
  static Ptr Create() { return Ptr(new PacketPool()); }

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Parks `pkt` in a body until the last handle to it lets go. Grows the pool
  // first when no body is spare.
  inline PooledPacket Park(Packet&& pkt);

  size_t bodies() const { return free_.nodes(); }  // ever allocated
  size_t live() const { return free_.live(); }     // held by handles
  size_t peak() const { return free_.peak(); }     // high-water mark of live()
  // Handles to the live bodies (a scan of the pool, for tests and reports).
  size_t handles() const {
    size_t n = 0;
    free_.ForEachNode([&n](const Body& b) { n += b.refs; });
    return n;
  }

 private:
  friend class PooledPacket;
  PacketPool() = default;
  ~PacketPool() = default;

  // The last handle to a body let go.
  void Unpark(Body* b) {
    b->pkt.~Packet();
    free_.Give(b);
    if (released_ && free_.live() == 0) {
      delete this;
    }
  }
  void Release() {
    released_ = true;
    if (free_.live() == 0) {
      delete this;
    }
  }

  ChunkedFreeList<Body> free_;
  bool released_ = false;
};

// A handle to a packet body in a PacketPool: one pointer, move-only; Share()
// makes another handle to the same body. Reads see the body through a const
// reference; Mutable() gives this handle a private body first when it is
// shared (copy-on-write). Dropping the last handle destroys the packet and
// returns the body, on the simulator thread that owns the pool.
class PooledPacket {
 public:
  PooledPacket() = default;
  PooledPacket(PooledPacket&& other) noexcept : body_(std::exchange(other.body_, nullptr)) {}
  PooledPacket& operator=(PooledPacket&& other) noexcept {
    if (this != &other) {
      Reset();
      body_ = std::exchange(other.body_, nullptr);
    }
    return *this;
  }
  PooledPacket(const PooledPacket&) = delete;
  PooledPacket& operator=(const PooledPacket&) = delete;
  ~PooledPacket() { Reset(); }

  const Packet& operator*() const { return body_->pkt; }
  const Packet* operator->() const { return &body_->pkt; }

  // Another handle holds this body too.
  bool shared() const { return body_->refs > 1; }
  PooledPacket Share() const {
    ++body_->refs;
    return PooledPacket(body_);
  }
  // The packet, writable: a shared body is cloned into a fresh one first, so
  // the other handles keep seeing it unchanged.
  Packet& Mutable() {
    if (shared()) {
      *this = body_->owner->Park(Packet(body_->pkt));
    }
    return body_->pkt;
  }

  // Lets go of the body (no-op on an empty handle).
  void Reset() {
    PacketPool::Body* b = std::exchange(body_, nullptr);
    if (b != nullptr && --b->refs == 0) {
      b->owner->Unpark(b);
    }
  }

 private:
  friend class PacketPool;
  explicit PooledPacket(PacketPool::Body* body) : body_(body) {}
  PacketPool::Body* body_ = nullptr;  // null once moved from
};

PooledPacket PacketPool::Park(Packet&& pkt) {
  if (!free_.HasSpare()) {
    DN_HOT_EXEMPT("storage growth: a chunk of packet bodies");
    free_.Grow();
  }
  Body* b = free_.Take();
  ::new (&b->pkt) Packet(std::move(pkt));
  b->owner = this;
  b->refs = 1;
  return PooledPacket(b);
}

// The packets on the wire of one link direction, in arrival order.
class FlightQueue {
 public:
  struct Descriptor {
    Descriptor* next = nullptr;  // spare list or queue link
    TimeNs arrival = 0;
    uint64_t seq = 0;  // the delivery event's seq, burned at transmit
    PooledPacket pkt;  // empty while spare
  };
  static_assert(sizeof(Descriptor) <= 32, "a queued packet costs one 32-byte descriptor");

  // The descriptors of every queue of one network. The network owns it and
  // destroys its queues first.
  using DescriptorPool = ChunkedFreeList<Descriptor>;

  FlightQueue() = default;
  FlightQueue(FlightQueue&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)), tail_(std::exchange(other.tail_, nullptr)) {}
  FlightQueue& operator=(FlightQueue&&) = delete;
  FlightQueue(const FlightQueue&) = delete;
  FlightQueue& operator=(const FlightQueue&) = delete;
  // Lets go of the packets still queued. The descriptors belong to the pool,
  // which must outlive the queue.
  ~FlightQueue() {
    for (Descriptor* d = head_; d != nullptr; d = d->next) {
      d->pkt.Reset();
    }
  }

  bool empty() const { return head_ == nullptr; }

  Descriptor& front() {
    assert(!empty());
    return *head_;
  }
  TimeNs back_arrival() const {
    assert(!empty());
    return tail_->arrival;
  }

  // Precondition: pool.HasSpare(), so Push never allocates.
  void Push(DescriptorPool& pool, TimeNs arrival, uint64_t seq, PooledPacket&& pkt) {
    Descriptor* d = pool.Take();
    d->arrival = arrival;
    d->seq = seq;
    d->pkt = std::move(pkt);
    if (tail_ == nullptr) {
      head_ = d;
    } else {
      tail_->next = d;
    }
    tail_ = d;
  }

  void Pop(DescriptorPool& pool) {
    assert(!empty());
    Descriptor* d = head_;
    head_ = d->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    d->pkt.Reset();
    pool.Give(d);
  }

 private:
  Descriptor* head_ = nullptr;  // null <=> empty
  Descriptor* tail_ = nullptr;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_NET_FLIGHT_QUEUE_H_
