#include "dmm/core/phase.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "dmm/alloc/size_class.h"

namespace dmm::core {

namespace {

using Histogram = std::unordered_map<unsigned, double>;

Histogram window_histogram(const std::vector<AllocEvent>& events,
                           std::size_t begin, std::size_t end) {
  Histogram h;
  double total = 0.0;
  for (std::size_t i = begin; i < end && i < events.size(); ++i) {
    const AllocEvent& e = events[i];
    if (e.op != AllocEvent::Op::kAlloc) continue;
    h[alloc::SizeClass::index_for(e.size == 0 ? 1 : e.size)] += 1.0;
    total += 1.0;
  }
  if (total > 0.0) {
    for (auto& [cls, count] : h) count /= total;
  }
  return h;
}

double kl_term(double p, double m) {
  return p > 0.0 && m > 0.0 ? p * std::log2(p / m) : 0.0;
}

/// Jensen-Shannon divergence between size-class distributions, in bits.
double js_divergence(const Histogram& a, const Histogram& b) {
  Histogram m = a;
  for (const auto& [cls, p] : b) m[cls] += p;
  for (auto& [cls, p] : m) p *= 0.5;
  double js = 0.0;
  for (const auto& [cls, p] : a) js += 0.5 * kl_term(p, m[cls]);
  for (const auto& [cls, p] : b) js += 0.5 * kl_term(p, m[cls]);
  return js;
}

}  // namespace

std::vector<PhaseSpan> detect_phases(const AllocTrace& trace,
                                     const PhaseDetectorOptions& opts) {
  const auto& events = trace.events();
  std::vector<PhaseSpan> spans;
  if (events.empty()) {
    spans.push_back({0, 0, 0});
    return spans;
  }
  std::vector<std::size_t> boundaries;  // first event of each new phase
  if (events.size() > 2 * opts.window) {
    Histogram prev = window_histogram(events, 0, opts.window);
    std::size_t last_boundary = 0;
    for (std::size_t pos = opts.window; pos + opts.window <= events.size();
         pos += opts.window) {
      const Histogram cur = window_histogram(events, pos, pos + opts.window);
      if (js_divergence(prev, cur) > opts.threshold &&
          pos - last_boundary >= opts.min_phase_events) {
        boundaries.push_back(pos);
        last_boundary = pos;
      }
      prev = cur;
    }
  }
  std::size_t start = 0;
  std::uint16_t phase = 0;
  for (std::size_t b : boundaries) {
    spans.push_back({phase++, start, b - 1});
    start = b;
  }
  spans.push_back({phase, start, events.size() - 1});
  return spans;
}

void apply_phases(AllocTrace& trace, const std::vector<PhaseSpan>& spans) {
  auto& events = trace.events();
  for (const PhaseSpan& span : spans) {
    for (std::size_t i = span.first_event;
         i <= span.last_event && i < events.size(); ++i) {
      events[i].phase = span.phase;
    }
  }
}

std::vector<AllocTrace> split_by_phase(const AllocTrace& trace) {
  const std::vector<AllocEvent>& events = trace.events();
  std::vector<std::uint64_t> allocs;  // per phase
  for (const AllocEvent& e : events) {
    if (e.phase >= allocs.size()) allocs.resize(e.phase + std::size_t{1});
    if (e.op == AllocEvent::Op::kAlloc) ++allocs[e.phase];
  }
  std::vector<AllocTrace> out(std::max<std::size_t>(allocs.size(), 1));
  // Each object contributes its alloc and at most one free.
  for (std::size_t p = 0; p < allocs.size(); ++p) {
    out[p].events().reserve(2 * allocs[p]);
  }
  // id -> owning phase: a flat table when the ids are dense, else a hash
  // map.
  const TraceIdBounds bounds = trace.id_bounds();
  const bool dense = bounds.dense();
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> flat(dense ? bounds.max_id + std::size_t{1} : 0,
                                  kNone);
  std::unordered_map<std::uint32_t, std::uint16_t> sparse;
  for (const AllocEvent& e : events) {
    if (e.op == AllocEvent::Op::kAlloc) {
      if (dense) {
        flat[e.id] = e.phase;
      } else {
        sparse[e.id] = e.phase;
      }
      out[e.phase].record_alloc(e.id, e.size, e.phase);
    } else if (dense) {
      if (flat[e.id] != kNone) {
        out[flat[e.id]].record_free(e.id, e.phase);
        flat[e.id] = kNone;
      }
    } else if (const auto it = sparse.find(e.id); it != sparse.end()) {
      out[it->second].record_free(e.id, e.phase);
      sparse.erase(it);
    }
  }
  return out;
}

}  // namespace dmm::core
