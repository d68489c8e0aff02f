#ifndef DMM_WORKLOADS_TRAFFIC_H
#define DMM_WORKLOADS_TRAFFIC_H

#include <cstdint>
#include <vector>

namespace dmm::workloads {

/// One network packet arrival.
struct Packet {
  std::uint64_t arrival_us = 0;  ///< arrival time (microseconds)
  std::uint32_t size = 0;        ///< wire size in bytes
  std::uint16_t flow = 0;        ///< flow id (maps to a DRR queue)
};

/// Synthetic internet-traffic generator standing in for the ITA traces
/// the paper feeds DRR ("10 real traces of internet network traffic up to
/// 10 Mbit/sec", Sec. 5), which are not available.
///
/// The model reproduces the properties DRR's DM behaviour depends on:
///   * the classic trimodal packet-size mix of internet backbones —
///     ~50% minimum-size ACKs (40 B), ~20% default-MTU segments (576 B),
///     ~25% Ethernet-MTU segments (1500 B), plus a jittered remainder —
///     so block sizes "vary greatly in size" as the paper requires,
///   * bursty arrivals: ON/OFF flows with Pareto-distributed burst and
///     idle lengths (the standard self-similarity construction), which
///     create the queue build-ups that drive peak memory,
///   * an aggregate offered load calibrated against a configurable link
///     rate (default 10 Mbit/s).
struct TrafficConfig {
  double link_mbps = 10.0;       ///< offered-load calibration
  /// Offered/service ratio.  Below 1 the router keeps up on average and
  /// queues build only during Pareto bursts — the regime of the paper's
  /// "up to 10 Mbit/sec" traces (sustained overload would just measure
  /// the tail-drop bound, not the manager).
  double load_factor = 0.45;
  std::uint16_t flows = 16;      ///< concurrent flows (DRR queues)
  std::uint32_t packets = 40000; ///< packets per trace
  double pareto_alpha = 1.5;     ///< burst-length tail index
  double mean_burst_packets = 24;
  /// Rate multiplier while a flow is ON (bursts arrive this much faster
  /// than the flow's long-run share; the OFF gaps compensate).
  double on_speedup = 3.0;
};

class TrafficGenerator {
 public:
  explicit TrafficGenerator(TrafficConfig cfg = {}) : cfg_(cfg) {}

  /// Generates one trace; @p seed selects which of the "10 real traces"
  /// stand-ins is produced (any seed is valid).
  [[nodiscard]] std::vector<Packet> generate(unsigned seed) const;

  [[nodiscard]] const TrafficConfig& config() const { return cfg_; }

  /// Empirical share of bytes in [lo, hi] over a trace (tests).
  [[nodiscard]] static double size_share(const std::vector<Packet>& trace,
                                         std::uint32_t lo, std::uint32_t hi);

 private:
  TrafficConfig cfg_;
};

}  // namespace dmm::workloads

#endif  // DMM_WORKLOADS_TRAFFIC_H
