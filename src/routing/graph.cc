#include "src/routing/graph.h"

namespace dumbnet {

namespace {

// A link contributes an edge pair iff it is an up inter-switch link.
inline bool Eligible(const Link& l) {
  return l.up && l.a.node.is_switch() && l.b.node.is_switch();
}

}  // namespace

SwitchGraph::SwitchGraph(const Topology& topo) { Build(topo, nullptr); }

SwitchGraph::SwitchGraph(const Topology& topo, const std::vector<LinkIndex>& allowed_links) {
  Build(topo, &allowed_links);
}

void SwitchGraph::Build(const Topology& topo, const std::vector<LinkIndex>* allowed_links) {
  const size_t n = topo.switch_count();
  offsets_.assign(n + 1, 0);

  auto for_each_link = [&](auto&& fn) {
    if (allowed_links == nullptr) {
      for (LinkIndex li = 0; li < topo.link_count(); ++li) {
        fn(li);
      }
    } else {
      for (LinkIndex li : *allowed_links) {
        if (li < topo.link_count()) {
          fn(li);
        }
      }
    }
  };

  // Pass 1: out-degrees into offsets_[v + 1].
  for_each_link([&](LinkIndex li) {
    const Link& l = topo.link_at(li);
    if (Eligible(l)) {
      ++offsets_[l.a.node.index + 1];
      ++offsets_[l.b.node.index + 1];
    }
  });
  for (size_t v = 0; v < n; ++v) {
    offsets_[v + 1] += offsets_[v];
  }

  // Pass 2: fill rows with per-vertex write cursors. Iterating links in the same
  // order as pass 1 reproduces the historical per-vertex neighbor order exactly.
  edges_.resize(offsets_[n]);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for_each_link([&](LinkIndex li) {
    const Link& l = topo.link_at(li);
    if (Eligible(l)) {
      edges_[cursor[l.a.node.index]++] =
          AdjEdge{l.b.node.index, l.a.port, l.b.port, li, 1.0};
      edges_[cursor[l.b.node.index]++] =
          AdjEdge{l.a.node.index, l.b.port, l.a.port, li, 1.0};
    }
  });
}

void SwitchGraph::ScaleLinkWeight(LinkIndex link, double factor) {
  for (AdjEdge& e : edges_) {
    if (e.link == link) {
      e.weight *= factor;
    }
  }
}

}  // namespace dumbnet
