// In-band path provenance (telemetry tentpole, part 3).
//
// DumbNet sources *choose* the whole path by writing the tag stack, but the
// stateless switches never echo back which ports actually carried the packet —
// a misprogrammed tag or a miswired port forwards traffic silently down the
// wrong path as long as it still reaches a host. The provenance header closes
// that loop: when telemetry is enabled, the sending host stamps the *promised*
// path (the switch-UID sequence its cached route was computed from) onto the
// packet, each switch appends a (switch_uid, ingress, egress) hop record as it
// pops its tag, and the receiving host compares taken vs promised, bumping the
// host.path_divergence counter on mismatch.
//
// This is a simulation-side diagnosis header: it is not charged to WireSize(),
// so paper-figure byte counts are unchanged. (A real deployment would carry it
// as a small INT-style option; the paper's switches would need none of it to
// forward.) Types are plain integers so this header sits in the telemetry
// layer, below topo/net.
#ifndef DUMBNET_SRC_TELEMETRY_PROVENANCE_H_
#define DUMBNET_SRC_TELEMETRY_PROVENANCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dumbnet {
namespace telemetry {

// One switch traversal, recorded by the switch as it forwards.
struct PathHop {
  uint64_t switch_uid = 0;
  uint8_t ingress = 0;
  uint8_t egress = 0;

  bool operator==(const PathHop& o) const {
    return switch_uid == o.switch_uid && ingress == o.ingress && egress == o.egress;
  }
};

// Carried on simulated packets. Storage is armed-only: an unarmed packet holds
// one null pointer and allocates nothing; a sender that arms it pays for one
// record (as in Minions, per-packet visibility state rides only on the packets
// that asked for it). Copying a packet copies its record.
class PathProvenance {
 public:
  PathProvenance() = default;
  PathProvenance(const PathProvenance& other) : rec_(CopyOf(other.rec_.get())) {}
  PathProvenance& operator=(const PathProvenance& other) {
    if (this != &other) {
      rec_ = CopyOf(other.rec_.get());
    }
    return *this;
  }
  PathProvenance(PathProvenance&&) noexcept = default;
  PathProvenance& operator=(PathProvenance&&) noexcept = default;
  ~PathProvenance() = default;

  // Stamps the switch UIDs the sender's route promised, source-side first, and
  // forgets any earlier record. Room for one hop per promised switch is
  // reserved here, so a packet that keeps its promise never grows the record
  // in flight. An empty promise leaves the packet unarmed.
  void Arm(const std::vector<uint64_t>& promised);

  // Appends the hop a switch actually took. No-op unless armed.
  void AddHop(const PathHop& hop) {
    if (armed()) {
      rec_->hops.push_back(hop);
    }
  }

  // True once a sender stamped a promise; receivers only verify armed packets.
  bool armed() const { return rec_ != nullptr && !rec_->promised.empty(); }

  // Empty when unarmed.
  const std::vector<uint64_t>& promised() const;
  const std::vector<PathHop>& hops() const;

  // Sets both fields verbatim, as a decoder does (a record is kept only when
  // either is non-empty), with the same hop reservation as Arm.
  void Assign(std::vector<uint64_t> promised, std::vector<PathHop> hops);

  void Clear() { rec_.reset(); }

 private:
  struct Record {
    std::vector<uint64_t> promised;
    std::vector<PathHop> hops;  // appended by each switch
  };
  // Deep copy that keeps the hop reservation; null for null.
  static std::unique_ptr<Record> CopyOf(const Record* rec);

  std::unique_ptr<Record> rec_;
};

// True when the taken path matches the promise: same switch count, same UIDs
// in order. Ingress/egress ports are reported, not matched — the promise is a
// UID sequence.
bool ProvenanceMatches(const PathProvenance& p);

// "promised=[0x..,..] taken=[0x..(in->out),..]" for divergence logging.
std::string DescribeProvenance(const PathProvenance& p);

}  // namespace telemetry
}  // namespace dumbnet

#endif  // DUMBNET_SRC_TELEMETRY_PROVENANCE_H_
