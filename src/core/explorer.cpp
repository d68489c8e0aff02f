#include "dmm/core/explorer.h"

#include "dmm/core/search.h"

namespace dmm::core {

using alloc::DmmConfig;

Explorer::Explorer(AllocTrace trace, ExplorerOptions opts)
    : Explorer(std::make_shared<const AllocTrace>(std::move(trace)), opts) {}

Explorer::Explorer(std::shared_ptr<const TraceSource> trace,
                   ExplorerOptions opts)
    : trace_(std::move(trace)),
      trace_fingerprint_(trace_->fingerprint()),
      opts_(opts),
      engine_(make_engine(opts.num_threads)) {}

ExplorationResult Explorer::run(SearchStrategy& strategy) {
  SearchContext ctx(*trace_, trace_fingerprint_, opts_, *engine_);
  strategy.run(ctx);
  return ctx.finish();
}

ExplorationResult Explorer::run() {
  const std::unique_ptr<SearchStrategy> strategy = make_strategy(opts_.search);
  return run(*strategy);
}

ExplorationResult Explorer::explore(const std::vector<TreeId>& order) {
  GreedySearch strategy(order);
  return run(strategy);
}

ExplorationResult Explorer::exhaustive(const std::vector<TreeId>& trees,
                                       std::size_t max_evals) {
  ExhaustiveSearch strategy(trees, max_evals);
  return run(strategy);
}

ExplorationResult Explorer::random_search(std::size_t samples, unsigned seed) {
  RandomSearch strategy(samples, seed);
  return run(strategy);
}

SimResult Explorer::score(const DmmConfig& cfg,
                          std::uint64_t* work_steps) const {
  // Same evaluate() caching protocol as the search strategies — lookup,
  // replay on miss, insert — so a shared cache both serves and learns
  // one-off scores.  The batch runs on a stack-local serial engine, not
  // the pooled engine_: the pool's per-batch state is not reentrant,
  // and score() must stay safe to call from any thread (the shared
  // cache and score_candidate both are).
  SerialEngine engine;
  SearchContext ctx(*trace_, trace_fingerprint_, opts_, engine);
  const std::vector<EvalOutcome> out = ctx.evaluate({{cfg, 0}});
  if (work_steps != nullptr) *work_steps = out[0].work_steps;
  return out[0].sim;
}

}  // namespace dmm::core
