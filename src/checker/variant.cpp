#include "checker/variant.hpp"

#include <algorithm>

#include "checker/convergence_check.hpp"

namespace nonmask {

std::uint32_t VariantFunction::max_value() const noexcept {
  std::uint32_t best = 0;
  for (std::uint32_t d : dist_) best = std::max(best, d);
  return best;
}

std::optional<VariantFunction> compute_variant(const StateSpace& space,
                                               const PredicateFn& S) {
  // compute over the whole space: T = true.
  ConvergenceReport report =
      check_convergence(space, S, true_predicate());
  if (report.verdict != ConvergenceVerdict::kConverges) return std::nullopt;

  // Re-run the DP to materialize distances: iterate states in decreasing
  // longest-distance order is implicit in the DFS; simplest correct
  // approach is a memoized post-order identical to check_convergence, so we
  // recompute here with an explicit stack.
  const Program& p = space.program();
  std::vector<std::size_t> actions;
  for (std::size_t i = 0; i < p.num_actions(); ++i) {
    if (p.action(i).kind() != ActionKind::kFault) actions.push_back(i);
  }

  std::vector<std::uint32_t> dist(space.size(), 0);
  std::vector<std::uint8_t> color(space.size(), 0);  // 0 new, 1 open, 2 done
  State scratch(p.num_variables());
  State next(p.num_variables());

  struct Frame {
    std::uint64_t code;
    std::vector<std::uint64_t> succs;
    std::size_t next = 0;
  };
  std::vector<Frame> frames;

  std::vector<std::uint8_t> in_S(space.size(), 0);
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, scratch);
    in_S[code] = S(scratch) ? 1 : 0;
  }

  auto expand = [&](std::uint64_t code, std::vector<std::uint64_t>& out) {
    out.clear();
    space.decode_into(code, scratch);
    for (std::size_t idx : actions) {
      const Action& a = p.action(idx);
      if (!a.enabled(scratch)) continue;
      next = scratch;
      a.execute(next);
      out.push_back(space.encode(next));
    }
  };

  for (std::uint64_t start = 0; start < space.size(); ++start) {
    if (in_S[start] != 0 || color[start] != 0) continue;
    Frame f;
    f.code = start;
    expand(start, f.succs);
    color[start] = 1;
    frames.push_back(std::move(f));
    while (!frames.empty()) {
      Frame& top = frames.back();
      if (top.next < top.succs.size()) {
        const std::uint64_t succ = top.succs[top.next++];
        if (in_S[succ] != 0) {
          dist[top.code] = std::max(dist[top.code], 1u);
          continue;
        }
        if (color[succ] == 0) {
          Frame g;
          g.code = succ;
          expand(succ, g.succs);
          color[succ] = 1;
          frames.push_back(std::move(g));
        } else {
          // color == 2 (no cycles: verdict was kConverges)
          dist[top.code] = std::max(dist[top.code], dist[succ] + 1);
        }
      } else {
        color[top.code] = 2;
        const std::uint64_t done = top.code;
        frames.pop_back();
        if (!frames.empty()) {
          dist[frames.back().code] =
              std::max(dist[frames.back().code], dist[done] + 1);
        }
      }
    }
  }
  return VariantFunction(space, std::move(dist));
}

}  // namespace nonmask
