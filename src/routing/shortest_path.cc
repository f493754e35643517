#include "src/routing/shortest_path.h"

#include <algorithm>
#include <cstddef>
#include <functional>

#include "src/analysis/contracts.h"

namespace dumbnet {

// Friend accessor: lets the algorithms in this file use the scratch internals
// without exposing them in the header.
class SsspAccess {
 public:
  using HeapItem = SsspScratch::HeapItem;

  static std::vector<HeapItem>& Heap(SsspScratch& s) { return s.heap_; }
  static std::vector<uint32_t>& Touched(SsspScratch& s) { return s.touched_; }
  static bool Done(const SsspScratch& s, uint32_t v) { return s.done_stamp_[v] == s.epoch_; }
  static void MarkDone(SsspScratch& s, uint32_t v) { s.done_stamp_[v] = s.epoch_; }
  static void Set(SsspScratch& s, uint32_t v, double cost, uint32_t parent, uint32_t hops) {
    if (!s.Seen(v)) {
      s.Touch(v);
    }
    s.cost_[v] = cost;
    s.parent_[v] = parent;
    s.hops_[v] = hops;
  }
};

namespace {

using HeapItem = SsspAccess::HeapItem;

// Min-heap on (cost, tiebreak).
struct HeapGreater {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    if (a.cost != b.cost) {
      return a.cost > b.cost;
    }
    return a.tiebreak > b.tiebreak;
  }
};

inline double EdgeWeight(const AdjEdge& e, const std::vector<double>* link_scale) {
  if (link_scale != nullptr && e.link < link_scale->size()) {
    return e.weight * (*link_scale)[e.link];
  }
  return e.weight;
}

// Shared scratch-based Dijkstra core. Early-exits at `dst` unless dst == kNoVertex
// (full-tree mode). Results live in `scratch` until its next Prepare().
//
// Vertices are finalized on first pop and never relaxed again. Without this,
// randomized tie-breaking cascades on high-ECMP fabrics: every accepted tie
// re-pushes an equal-cost heap entry, equal-cost pops re-expand, and those
// expansions trigger more downstream ties — on a unit-weight cube a single query
// cost ~100x the finalized version. Ties stay randomized among the candidate
// parents that reach a vertex before it is popped.
void DijkstraInto(const SwitchGraph& graph, uint32_t src, uint32_t dst, Rng* rng,
                  SsspScratch& scratch, const std::vector<double>* link_scale) {
  scratch.Prepare(graph.size());
  auto& heap = SsspAccess::Heap(scratch);
  HeapGreater greater;
  SsspAccess::Set(scratch, src, 0.0, kNoVertex, 0);
  heap.push_back(HeapItem{0.0, 0, src});
  while (!heap.empty()) {
    const HeapItem top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), greater);
    heap.pop_back();
    if (SsspAccess::Done(scratch, top.vertex)) {
      continue;  // duplicate entry; this vertex is already finalized
    }
    SsspAccess::MarkDone(scratch, top.vertex);
    if (top.vertex == dst) {
      break;
    }
    const uint32_t hops = scratch.HopsOr(top.vertex, 0) + 1;
    for (const AdjEdge& e : graph.Neighbors(top.vertex)) {
      if (SsspAccess::Done(scratch, e.to)) {
        continue;  // finalized: cost can't improve, and its parent is settled
      }
      const double nc = top.cost + EdgeWeight(e, link_scale);
      const double old = scratch.CostOr(e.to, kInfCost);
      const bool better = nc < old;
      // Randomized tie-break: replace an equal-cost parent with probability 1/2.
      const bool tie = !better && nc == old && rng != nullptr && rng->Bernoulli(0.5);
      if (better || tie) {
        SsspAccess::Set(scratch, e.to, nc, top.vertex, hops);
        heap.push_back(HeapItem{nc, rng != nullptr ? rng->Next64() : 0, e.to});
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
  }
}

Result<SwitchPath> ExtractPath(const SsspScratch& scratch, uint32_t src, uint32_t dst) {
  if (!scratch.Seen(dst)) {
    return Error(ErrorCode::kUnavailable, "destination unreachable");
  }
  SwitchPath path;
  for (uint32_t v = dst; v != kNoVertex; v = scratch.ParentOr(v, kNoVertex)) {
    path.push_back(v);
    if (v == src) {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != src) {
    return Error(ErrorCode::kInternal, "path reconstruction failed");
  }
  return path;
}

}  // namespace

std::vector<uint32_t> BfsDistances(const SwitchGraph& graph, uint32_t src) {
  std::vector<uint32_t> dist(graph.size(), UINT32_MAX);
  if (src >= graph.size()) {
    return dist;
  }
  SsspScratch scratch;
  BfsDistancesInto(graph, src, scratch);
  for (uint32_t v : scratch.touched()) {
    dist[v] = scratch.HopsOr(v, UINT32_MAX);
  }
  return dist;
}

void BfsDistancesInto(const SwitchGraph& graph, uint32_t src, SsspScratch& scratch,
                      uint32_t max_hops) {
  scratch.Prepare(graph.size());
  if (src >= graph.size()) {
    return;
  }
  // touched() doubles as the BFS queue: visit order == touch order.
  SsspAccess::Set(scratch, src, 0.0, kNoVertex, 0);
  auto& queue = SsspAccess::Touched(scratch);
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const uint32_t u = queue[qi];
    const uint32_t du = scratch.HopsOr(u, 0);
    if (du >= max_hops) {
      continue;  // beyond the horizon: exact inside, unreached outside
    }
    for (const AdjEdge& e : graph.Neighbors(u)) {
      if (!scratch.Seen(e.to)) {
        SsspAccess::Set(scratch, e.to, static_cast<double>(du + 1), u, du + 1);
      }
    }
  }
}

Result<SwitchPath> ShortestPath(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                                Rng* rng) {
  if (src >= graph.size() || dst >= graph.size()) {
    return Error(ErrorCode::kOutOfRange, "vertex out of range");
  }
  // Shares DijkstraInto with ShortestPathScaled so both draw from `rng`
  // identically: same seed, same graph => same path, scaled or not. The scratch
  // is thread-local so back-to-back queries (one per route install during
  // bring-up) reuse the arrays; Prepare() epoch-invalidates stale contents, so
  // results never depend on what a previous query left behind.
  static thread_local SsspScratch scratch;
  DijkstraInto(graph, src, dst, rng, scratch, nullptr);
  return ExtractPath(scratch, src, dst);
}

Result<SwitchPath> ShortestPathScaled(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                                      Rng* rng, SsspScratch& scratch,
                                      const std::vector<double>* link_scale) {
  if (src >= graph.size() || dst >= graph.size()) {
    return Error(ErrorCode::kOutOfRange, "vertex out of range");
  }
  DijkstraInto(graph, src, dst, rng, scratch, link_scale);
  return ExtractPath(scratch, src, dst);
}

SsspTree BuildSsspTree(const SwitchGraph& graph, uint32_t src, Rng* rng,
                       SsspScratch* scratch) {
  SsspTree tree;
  tree.src = src;
  tree.cost.assign(graph.size(), kInfCost);
  tree.parent.assign(graph.size(), kNoVertex);
  if (src >= graph.size()) {
    return tree;
  }
  SsspScratch local;
  SsspScratch& s = scratch != nullptr ? *scratch : local;
  DijkstraInto(graph, src, kNoVertex, rng, s, nullptr);
  for (uint32_t v : s.touched()) {
    tree.cost[v] = s.CostOr(v, kInfCost);
    tree.parent[v] = s.ParentOr(v, kNoVertex);
  }
  return tree;
}

Result<SwitchPath> PathFromTree(const SsspTree& tree, uint32_t dst) {
  if (dst >= tree.cost.size() || tree.src == kNoVertex) {
    return Error(ErrorCode::kOutOfRange, "vertex out of range");
  }
  if (tree.cost[dst] == kInfCost) {
    return Error(ErrorCode::kUnavailable, "destination unreachable");
  }
  SwitchPath path;
  for (uint32_t v = dst; v != kNoVertex; v = tree.parent[v]) {
    path.push_back(v);
    if (v == tree.src) {
      break;
    }
    if (path.size() > tree.cost.size()) {
      return Error(ErrorCode::kInternal, "cycle in SSSP tree");
    }
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != tree.src) {
    return Error(ErrorCode::kInternal, "path reconstruction failed");
  }
  return path;
}

Result<double> PathCost(const SwitchGraph& graph, const SwitchPath& path) {
  if (path.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty path");
  }
  double total = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    bool found = false;
    double best = kInfCost;
    for (const AdjEdge& e : graph.Neighbors(path[i])) {
      if (e.to == path[i + 1]) {
        best = std::min(best, e.weight);
        found = true;
      }
    }
    if (!found) {
      return Error(ErrorCode::kNotFound, "missing edge on path");
    }
    total += best;
  }
  return total;
}

// Yen's algorithm over a KspScratch. Friend of KspScratch.
//
// Each spur search is a lazy-deletion Dijkstra without tie-break draws, run on
// one heap vector with std::push_heap/std::pop_heap and std::greater — exactly
// what std::priority_queue does, so equal-cost entries pop in the same order
// and the same paths come out. With nonnegative weights each vertex is
// expanded at most once, so a search pushes at most edge_count() + 1 entries:
// Prepare() reserves that, and the searches never grow the heap.
class YenSearch {
 public:
  using DijkstraItem = KspScratch::DijkstraItem;
  using Candidate = KspScratch::Candidate;

  static Result<std::vector<SwitchPath>> Run(const SwitchGraph& graph, uint32_t src,
                                             uint32_t dst, uint32_t k, KspScratch& s) {
    auto first = ShortestPathScaled(graph, src, dst, nullptr, s.first_, nullptr);
    if (!first.ok()) {
      return first.error();
    }
    std::vector<SwitchPath> result;
    result.push_back(std::move(first.value()));
    if (k <= 1) {
      return result;
    }
    Prepare(graph, s);
    s.seen_.push_back(result.front());

    while (result.size() < k) {
      const SwitchPath& prev = result.back();
      // Spur from every vertex of the previous path except the last. The root
      // is prev[0..i]; the root vertices before the spur are banned so paths
      // stay simple, and they grow by one per step.
      for (size_t i = 0; i + 1 < prev.size(); ++i) {
        DN_HOT_SCOPE("routing.ksp_spur");
        const uint32_t spur = prev[i];
        if (i > 0) {
          s.banned_vertex_[prev[i - 1]] = 1;
        }
        // Ban the next hops that would recreate an already-found path with
        // this root. Every such edge leaves the spur vertex.
        const auto root_end = prev.begin() + static_cast<std::ptrdiff_t>(i) + 1;
        for (const SwitchPath& p : result) {
          if (p.size() > i + 1 && std::equal(prev.begin(), root_end, p.begin())) {
            s.banned_next_[p[i + 1]] = 1;
          }
        }
        const bool reached = SpurSearch(graph, spur, dst, s);
        for (const AdjEdge& e : graph.Neighbors(spur)) {
          s.banned_next_[e.to] = 0;  // found paths only use edges of `graph`
        }
        if (!reached || AlreadySeen(prev, i, s)) {
          continue;
        }
        DN_HOT_EXEMPT("candidate path materialization");
        SwitchPath total(prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(i));
        total.insert(total.end(), s.chain_.rbegin(), s.chain_.rend());
        s.seen_.push_back(total);
        auto cost = PathCost(graph, total);
        if (cost.ok()) {
          s.candidates_.push_back({cost.value(), std::move(total)});
          std::push_heap(s.candidates_.begin(), s.candidates_.end(),
                         std::greater<Candidate>());
        }
      }
      for (size_t j = 0; j + 2 < prev.size(); ++j) {
        s.banned_vertex_[prev[j]] = 0;
      }
      if (s.candidates_.empty()) {
        break;
      }
      std::pop_heap(s.candidates_.begin(), s.candidates_.end(), std::greater<Candidate>());
      result.push_back(std::move(s.candidates_.back().path));
      s.candidates_.pop_back();
    }
    s.seen_.clear();
    s.candidates_.clear();
    return result;
  }

 private:
  // Grows the per-vertex arrays to the graph (new entries clean) and the heap,
  // touched list and chain to their worst case.
  static void Prepare(const SwitchGraph& graph, KspScratch& s) {
    const size_t n = graph.size();
    if (s.cost_.size() < n) {
      s.cost_.resize(n, kInfCost);
      s.parent_.resize(n, kNoVertex);
      s.banned_vertex_.resize(n, 0);
      s.banned_next_.resize(n, 0);
    }
    s.touched_.reserve(n);
    s.chain_.reserve(n);
    s.heap_.reserve(graph.edge_count() + 1);
  }

  static void Push(KspScratch& s, DijkstraItem item) {
    s.heap_.push_back(item);  // within the capacity Prepare() reserved
    std::push_heap(s.heap_.begin(), s.heap_.end(), std::greater<DijkstraItem>());
  }

  static void Reach(KspScratch& s, uint32_t v, double cost, uint32_t parent) {
    if (s.cost_[v] == kInfCost) {
      s.touched_.push_back(v);  // each vertex once: within the reserved n
    }
    s.cost_[v] = cost;
    s.parent_[v] = parent;
  }

  // Spur-path Dijkstra from `src` avoiding the banned vertices and, out of
  // `src` only, the banned next hops (the only other way onto a banned edge is
  // back into `src`, whose cost of 0 can never improve). On success leaves the
  // path in chain_, destination first. Restores cost_/parent_ before returning.
  static bool SpurSearch(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                         KspScratch& s) {
    s.heap_.clear();
    Reach(s, src, 0.0, kNoVertex);
    Push(s, DijkstraItem{0.0, 0, src});
    while (!s.heap_.empty()) {
      const DijkstraItem top = s.heap_.front();
      std::pop_heap(s.heap_.begin(), s.heap_.end(), std::greater<DijkstraItem>());
      s.heap_.pop_back();
      if (top.cost > s.cost_[top.vertex]) {
        continue;
      }
      if (top.vertex == dst) {
        break;
      }
      const bool at_src = top.vertex == src;
      for (const AdjEdge& e : graph.Neighbors(top.vertex)) {
        if (s.banned_vertex_[e.to] != 0 || (at_src && s.banned_next_[e.to] != 0)) {
          continue;
        }
        const double nc = top.cost + e.weight;
        if (nc < s.cost_[e.to]) {
          Reach(s, e.to, nc, top.vertex);
          Push(s, DijkstraItem{nc, 0, e.to});
        }
      }
    }
    s.chain_.clear();
    if (s.cost_[dst] != kInfCost) {
      for (uint32_t v = dst; v != kNoVertex; v = s.parent_[v]) {
        s.chain_.push_back(v);  // a simple path: within the reserved n
        if (v == src) {
          break;
        }
      }
    }
    for (uint32_t v : s.touched_) {
      s.cost_[v] = kInfCost;
      s.parent_[v] = kNoVertex;
    }
    s.touched_.clear();
    return !s.chain_.empty() && s.chain_.back() == src;
  }

  // True if prev[0..i) followed by the reversed chain_ is already in seen_.
  static bool AlreadySeen(const SwitchPath& prev, size_t i, const KspScratch& s) {
    const size_t len = i + s.chain_.size();
    const auto prefix_end = prev.begin() + static_cast<std::ptrdiff_t>(i);
    for (const SwitchPath& p : s.seen_) {
      if (p.size() == len && std::equal(prev.begin(), prefix_end, p.begin()) &&
          std::equal(s.chain_.rbegin(), s.chain_.rend(),
                     p.begin() + static_cast<std::ptrdiff_t>(i))) {
        return true;
      }
    }
    return false;
  }
};

Result<std::vector<SwitchPath>> KShortestPaths(const SwitchGraph& graph, uint32_t src,
                                               uint32_t dst, uint32_t k) {
  KspScratch scratch;
  return KShortestPaths(graph, src, dst, k, scratch);
}

Result<std::vector<SwitchPath>> KShortestPaths(const SwitchGraph& graph, uint32_t src,
                                               uint32_t dst, uint32_t k,
                                               KspScratch& scratch) {
  return YenSearch::Run(graph, src, dst, k, scratch);
}

}  // namespace dumbnet
