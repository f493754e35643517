#include "src/routing/path_graph.h"

#include <algorithm>

namespace dumbnet {

// All construction logic lives here; friend of PathGraphScratch.
class PathGraphBuilder {
 public:
  // Completes `out` (src/dst/primary already set): backup path, detour sets, and
  // the induced subgraph. Mirrors the historical allocating implementation
  // operation-for-operation so rng draws and outputs are unchanged.
  static SsspScratch& Dijkstra(PathGraphScratch& sc) { return sc.dijkstra_; }

  static void Complete(const SwitchGraph& graph, const PathGraphParams& params, Rng* rng,
                       PathGraphScratch& sc, PathGraph& out) {
    const SwitchPath& primary = out.primary;

    // (ii) Backup: rerun with primary links made expensive. A per-link weight
    // multiplier stands in for the graph copy the old code made.
    {
      const size_t scale_size = LinkScaleSize(graph);
      if (sc.link_scale_.size() < scale_size) {
        sc.link_scale_.resize(scale_size, 1.0);
      }
      for (size_t i = 0; i + 1 < primary.size(); ++i) {
        for (const AdjEdge& e : graph.Neighbors(primary[i])) {
          if (e.to == primary[i + 1]) {
            if (sc.link_scale_[e.link] == 1.0) {
              sc.scaled_.push_back(e.link);
            }
            sc.link_scale_[e.link] *= params.backup_penalty;
          }
        }
      }
      auto backup = ShortestPathScaled(graph, out.src_switch, out.dst_switch, rng,
                                       sc.dijkstra_, &sc.link_scale_);
      for (LinkIndex li : sc.scaled_) {
        sc.link_scale_[li] = 1.0;
      }
      sc.scaled_.clear();
      if (backup.ok()) {
        out.backup = std::move(backup.value());
      }
      // A disconnected backup is not fatal: single-homed destinations have none.
    }

    // (iii) Local detours, Algorithm 1. Windows [p_i, p_{i+s}] advance by s/2;
    // every vertex x with dist(a,x) + dist(x,b) <= s + ε joins the subgraph.
    // Both BFS runs are truncated at the budget: anything further can't qualify.
    BeginMemberSet(sc, graph.size());
    for (uint32_t v : primary) {
      AddMember(sc, v);
    }
    for (uint32_t v : out.backup) {
      AddMember(sc, v);
    }

    const size_t l = primary.size();  // vertices on primary (hops = l-1)
    const uint32_t s = std::max<uint32_t>(1, params.s);
    const uint32_t step = std::max<uint32_t>(1, s / 2);
    const uint32_t budget = s + params.epsilon;
    for (size_t i = 0; i < l; i += step) {
      uint32_t a = primary[i];
      uint32_t b = primary[std::min(i + s, l - 1)];
      BfsDistancesInto(graph, a, sc.bfs_a_, budget);
      BfsDistancesInto(graph, b, sc.bfs_b_, budget);
      for (uint32_t x : sc.bfs_a_.touched()) {
        const uint32_t db = sc.bfs_b_.HopsOr(x, UINT32_MAX);
        if (db != UINT32_MAX && sc.bfs_a_.HopsOr(x, UINT32_MAX) + db <= budget) {
          AddMember(sc, x);
        }
      }
      if (i + s >= l - 1) {
        break;  // final window reached the destination
      }
    }

    std::sort(sc.vertices_.begin(), sc.vertices_.end());
    out.vertices = sc.vertices_;

    // Induced links: both endpoints in the vertex set. Each qualifying link is
    // seen from both ends, so sort + unique dedups.
    sc.links_.clear();
    for (uint32_t v : out.vertices) {
      for (const AdjEdge& e : graph.Neighbors(v)) {
        if (sc.member_stamp_[e.to] == sc.member_epoch_) {
          sc.links_.push_back(e.link);
        }
      }
    }
    std::sort(sc.links_.begin(), sc.links_.end());
    sc.links_.erase(std::unique(sc.links_.begin(), sc.links_.end()), sc.links_.end());
    out.links = sc.links_;
  }

 private:
  // link_scale_ is indexed by LinkIndex; the largest index any edge can carry is
  // bounded by the number of directed edges (each link contributes two).
  static size_t LinkScaleSize(const SwitchGraph& graph) {
    size_t max_link = 0;
    for (uint32_t v = 0; v < graph.size(); ++v) {
      for (const AdjEdge& e : graph.Neighbors(v)) {
        max_link = std::max<size_t>(max_link, e.link);
      }
    }
    return graph.edge_count() == 0 ? 0 : max_link + 1;
  }

  static void BeginMemberSet(PathGraphScratch& sc, size_t vertices) {
    if (sc.member_stamp_.size() < vertices) {
      sc.member_stamp_.resize(vertices, 0);
    }
    if (++sc.member_epoch_ == 0) {
      std::fill(sc.member_stamp_.begin(), sc.member_stamp_.end(), 0u);
      sc.member_epoch_ = 1;
    }
    sc.vertices_.clear();
  }

  static void AddMember(PathGraphScratch& sc, uint32_t v) {
    if (sc.member_stamp_[v] != sc.member_epoch_) {
      sc.member_stamp_[v] = sc.member_epoch_;
      sc.vertices_.push_back(v);
    }
  }
};

Result<PathGraph> BuildPathGraph(const Topology& topo, const SwitchGraph& graph,
                                 uint32_t src_switch, uint32_t dst_switch,
                                 const PathGraphParams& params, Rng* rng) {
  PathGraphScratch scratch;
  return BuildPathGraph(topo, graph, src_switch, dst_switch, params, rng, scratch);
}

Result<PathGraph> BuildPathGraph(const Topology& topo, const SwitchGraph& graph,
                                 uint32_t src_switch, uint32_t dst_switch,
                                 const PathGraphParams& params, Rng* rng,
                                 PathGraphScratch& scratch) {
  (void)topo;
  PathGraph out;
  out.src_switch = src_switch;
  out.dst_switch = dst_switch;

  // (i) Primary: randomized shortest path.
  auto primary = ShortestPathScaled(graph, src_switch, dst_switch, rng,
                                    PathGraphBuilder::Dijkstra(scratch), nullptr);
  if (!primary.ok()) {
    return primary.error();
  }
  out.primary = std::move(primary.value());
  PathGraphBuilder::Complete(graph, params, rng, scratch, out);
  return out;
}

Result<PathGraph> BuildPathGraphAround(const Topology& topo, const SwitchGraph& graph,
                                       SwitchPath primary, const PathGraphParams& params,
                                       Rng* rng, PathGraphScratch& scratch) {
  (void)topo;
  if (primary.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty primary path");
  }
  PathGraph out;
  out.src_switch = primary.front();
  out.dst_switch = primary.back();
  out.primary = std::move(primary);
  PathGraphBuilder::Complete(graph, params, rng, scratch, out);
  return out;
}

std::vector<Result<PathGraph>> BuildPathGraphBatch(
    const Topology& topo, const SwitchGraph& graph, const SsspTree& tree,
    const std::vector<uint32_t>& dst_switches, const PathGraphParams& params, Rng* rng) {
  const size_t n = dst_switches.size();
  std::vector<Result<PathGraph>> out(
      n, Result<PathGraph>(Error(ErrorCode::kInternal, "not computed")));

  // Fork one rng per destination up front, in index order, so an unreachable
  // destination consumes its fork too and the others' streams do not shift.
  std::vector<Rng> rngs;
  if (rng != nullptr) {
    rngs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rngs.push_back(rng->Fork(i));
    }
  }

  PathGraphScratch scratch;
  for (size_t i = 0; i < n; ++i) {
    auto primary = PathFromTree(tree, dst_switches[i]);
    if (!primary.ok()) {
      out[i] = primary.error();
      continue;
    }
    out[i] = BuildPathGraphAround(topo, graph, std::move(primary.value()), params,
                                  rng != nullptr ? &rngs[i] : nullptr, scratch);
  }
  return out;
}

namespace {

uint64_t CountPathsDfs(const SwitchGraph& g, uint32_t u, uint32_t dst,
                       std::vector<bool>& on_stack, uint64_t cap, uint64_t found) {
  if (u == dst) {
    return found + 1;
  }
  on_stack[u] = true;
  for (const AdjEdge& e : g.Neighbors(u)) {
    if (found >= cap) {
      break;
    }
    if (!on_stack[e.to]) {
      found = CountPathsDfs(g, e.to, dst, on_stack, cap, found);
    }
  }
  on_stack[u] = false;
  return found;
}

}  // namespace

uint64_t CountPathsInSubgraph(const Topology& topo, const PathGraph& pg, uint64_t cap) {
  SwitchGraph sub(topo, pg.links);
  std::vector<bool> on_stack(sub.size(), false);
  return CountPathsDfs(sub, pg.src_switch, pg.dst_switch, on_stack, cap, 0);
}

}  // namespace dumbnet
