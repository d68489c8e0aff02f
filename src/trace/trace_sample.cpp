#include "dmm/trace/trace_sample.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "dmm/alloc/size_class.h"

namespace dmm::trace {

using core::AllocEvent;

namespace {

/// splitmix64: deterministic, well-mixed, and seedable — the sample must
/// be a pure function of (source, budget, seed), so no library RNG whose
/// stream could differ across platforms is involved.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform in [0, 1) from the (seed, alloc-event-index) hash.  Keying on
/// the event index (unique per object even when ids are reused) keeps
/// every object's draw independent.
double inclusion_draw(std::uint64_t seed, std::uint64_t key) {
  const std::uint64_t h = splitmix64(seed ^ splitmix64(key));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint32_t stratum_key(unsigned size_class, std::uint16_t phase) {
  return (static_cast<std::uint32_t>(size_class) << 16) | phase;
}

struct Stratum {
  std::uint64_t objects = 0;
  std::uint64_t sampled = 0;
  double bytes = 0.0;
  double rate = 1.0;
};

}  // namespace

SampleResult sample_trace(const core::TraceSource& source,
                          const SampleOptions& opts) {
  SampleResult res;
  res.population_events = source.event_count();

  // Pass 1: population object counts per (size class, phase) stratum.
  // Ordered map: strata are iterated when assigning rates and reporting,
  // and the iteration order must be deterministic.
  std::map<std::uint32_t, Stratum> strata;
  std::uint64_t population_objects = 0;
  double total_bytes = 0.0;
  {
    const auto cur = source.cursor();
    const AllocEvent* run = nullptr;
    std::size_t n = 0;
    while ((n = cur->next(&run)) != 0) {
      for (std::size_t k = 0; k < n; ++k) {
        const AllocEvent& e = run[k];
        if (e.op != AllocEvent::Op::kAlloc) continue;
        const unsigned cls =
            alloc::SizeClass::index_for(e.size == 0 ? 1 : e.size);
        Stratum& s = strata[stratum_key(cls, e.phase)];
        ++s.objects;
        s.bytes += static_cast<double>(e.size == 0 ? 1 : e.size);
        ++population_objects;
        total_bytes += static_cast<double>(e.size == 0 ? 1 : e.size);
      }
    }
  }

  // Rate assignment (an object costs about two events of the budget):
  // half the object budget is spread uniformly, half in proportion to
  // each stratum's byte mass.  Rare large-block strata dominate the peak,
  // so the byte half samples them densely — usually exhaustively — while
  // the abundant small strata carry the subsampling.  A per-stratum floor
  // keeps even byte-light strata represented.
  const double target_objects = static_cast<double>(opts.budget) / 2.0;
  for (auto& [key, s] : strata) {
    (void)key;
    double rate = 1.0;
    if (opts.budget != 0 && s.objects > 0) {
      const double uniform = target_objects / 2.0 /
                             static_cast<double>(population_objects);
      const double by_bytes =
          total_bytes > 0.0
              ? target_objects / 2.0 * (s.bytes / total_bytes) /
                    static_cast<double>(s.objects)
              : 0.0;
      const double floor_rate = static_cast<double>(opts.min_per_stratum) /
                                static_cast<double>(s.objects);
      rate = std::max(std::max(uniform, by_bytes), floor_rate);
    }
    s.rate = std::min(1.0, rate);
  }

  // Pass 2: hash-based inclusion and emission with dense renumbering.
  std::unordered_map<std::uint32_t, std::uint32_t> kept;  // old id -> new id
  std::uint32_t next_id = 0;
  {
    const auto cur = source.cursor();
    const AllocEvent* run = nullptr;
    std::size_t n = 0;
    std::uint64_t event_index = 0;
    while ((n = cur->next(&run)) != 0) {
      for (std::size_t k = 0; k < n; ++k, ++event_index) {
        const AllocEvent& e = run[k];
        if (e.op == AllocEvent::Op::kAlloc) {
          const unsigned cls =
              alloc::SizeClass::index_for(e.size == 0 ? 1 : e.size);
          Stratum& s = strata[stratum_key(cls, e.phase)];
          if (inclusion_draw(opts.seed, event_index) >= s.rate) continue;
          ++s.sampled;
          ++res.sampled_objects;
          kept[e.id] = next_id;
          res.trace.record_alloc(next_id++, e.size, e.phase);
        } else {
          const auto it = kept.find(e.id);
          if (it == kept.end()) continue;
          res.trace.record_free(it->second, e.phase);
          kept.erase(it);
        }
      }
    }
  }

  res.strata.reserve(strata.size());
  for (const auto& [key, s] : strata) {
    StratumReport r;
    r.size_class = key >> 16;
    r.phase = static_cast<std::uint16_t>(key & 0xffffu);
    r.objects = s.objects;
    r.sampled = s.sampled;
    r.rate = s.rate;
    res.strata.push_back(r);
  }
  return res;
}

SampleResult sample_trace(const core::TraceSource& source,
                          std::uint64_t budget, std::uint64_t seed) {
  SampleOptions opts;
  opts.budget = budget;
  opts.seed = seed;
  return sample_trace(source, opts);
}

}  // namespace dmm::trace
