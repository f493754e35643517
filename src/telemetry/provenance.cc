#include "src/telemetry/provenance.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

namespace dumbnet {
namespace telemetry {

namespace {
const std::vector<uint64_t> kNoPromise;
const std::vector<PathHop> kNoHops;
}  // namespace

void PathProvenance::Arm(const std::vector<uint64_t>& promised) {
  if (promised.empty()) {
    rec_.reset();
    return;
  }
  rec_ = std::make_unique<Record>();
  rec_->promised = promised;
  rec_->hops.reserve(promised.size());
}

std::unique_ptr<PathProvenance::Record> PathProvenance::CopyOf(const Record* rec) {
  if (rec == nullptr) {
    return nullptr;
  }
  auto copy = std::make_unique<Record>();
  copy->promised = rec->promised;
  copy->hops.reserve(std::max(rec->hops.size(), rec->promised.size()));
  copy->hops = rec->hops;
  return copy;
}

const std::vector<uint64_t>& PathProvenance::promised() const {
  return rec_ != nullptr ? rec_->promised : kNoPromise;
}

const std::vector<PathHop>& PathProvenance::hops() const {
  return rec_ != nullptr ? rec_->hops : kNoHops;
}

void PathProvenance::Assign(std::vector<uint64_t> promised, std::vector<PathHop> hops) {
  if (promised.empty() && hops.empty()) {
    rec_.reset();
    return;
  }
  rec_ = std::make_unique<Record>(Record{std::move(promised), std::move(hops)});
  rec_->hops.reserve(rec_->promised.size());
}

bool ProvenanceMatches(const PathProvenance& p) {
  const std::vector<uint64_t>& promised = p.promised();
  const std::vector<PathHop>& hops = p.hops();
  if (hops.size() != promised.size()) {
    return false;
  }
  for (size_t i = 0; i < hops.size(); ++i) {
    if (hops[i].switch_uid != promised[i]) {
      return false;
    }
  }
  return true;
}

std::string DescribeProvenance(const PathProvenance& p) {
  const std::vector<uint64_t>& promised = p.promised();
  const std::vector<PathHop>& hops = p.hops();
  std::ostringstream os;
  os << std::hex;
  os << "promised=[";
  for (size_t i = 0; i < promised.size(); ++i) {
    os << (i == 0 ? "" : ",") << "0x" << promised[i];
  }
  os << "] taken=[";
  for (size_t i = 0; i < hops.size(); ++i) {
    const PathHop& h = hops[i];
    os << (i == 0 ? "" : ",") << "0x" << h.switch_uid << std::dec << "("
       << static_cast<unsigned>(h.ingress) << "->" << static_cast<unsigned>(h.egress)
       << ")" << std::hex;
  }
  os << "]";
  return os.str();
}

}  // namespace telemetry
}  // namespace dumbnet
