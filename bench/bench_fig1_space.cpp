// Figure 1 — "DM management search space of orthogonal decisions": the
// five categories, their decision trees and leaves, the size of the raw
// cartesian space, and the census of operational/coherent vectors after
// the interdependencies prune it.  Also builds the coherent-space index
// the searches sample (core::coherent_space) and prints its size and build
// time; exits non-zero unless the index holds exactly the census's
// coherent vectors.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "dmm/core/design_space.h"

int main() {
  using namespace dmm;
  using core::TreeId;

  std::printf("Figure 1: the DM management design space\n");
  bench::print_rule('=');

  char current = 0;
  for (TreeId t : core::all_trees()) {
    const char cat = core::tree_category(t);
    if (cat != current) {
      current = cat;
      std::printf("\n%c. %s\n", cat, core::category_title(cat).c_str());
    }
    std::printf("  %s %-38s:", core::tree_id(t).c_str(),
                core::tree_title(t).c_str());
    for (int leaf = 0; leaf < core::leaf_count(t); ++leaf) {
      std::printf(" %s", core::leaf_name(t, leaf).c_str());
    }
    std::printf("\n");
  }

  bench::print_rule();
  std::printf("raw cartesian space : %llu decision vectors\n",
              static_cast<unsigned long long>(core::raw_space_size()));

  // Exact census over the full space (a few seconds; ~10^7 vectors).
  const core::SpaceCensus census = core::census(/*sample_stride=*/1);
  std::printf("operational vectors : %llu (%.1f%%) — no hard "
              "interdependency violated\n",
              static_cast<unsigned long long>(census.operational),
              100.0 * static_cast<double>(census.operational) /
                  static_cast<double>(census.raw));
  std::printf("coherent vectors    : %llu (%.1f%%) — additionally no "
              "shadowed decision\n",
              static_cast<unsigned long long>(census.coherent),
              100.0 * static_cast<double>(census.coherent) /
                  static_cast<double>(census.raw));

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t indexed = core::coherent_space().size();
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  const bool index_ok = indexed == census.coherent;
  std::printf("coherent-space index: %zu vectors, built in %.1f ms by "
              "scoped backtracking — %s\n",
              indexed, build_ms,
              index_ok ? "matches the census" : "DIFFERS FROM THE CENSUS");
  std::printf("\nAny coherent vector is one atomic DM manager; the space "
              "recreates the\ngeneral-purpose managers (Kingsley, Lea, "
              "regions, ...) and \"our own new\nhighly-specialized DM "
              "managers\" (Sec. 3.1).\n");
  return index_ok ? 0 : 1;
}
