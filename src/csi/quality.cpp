#include "csi/quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.hpp"

namespace spotfi {
namespace {

/// Total CSI power of a packet in dB (arbitrary reference).
double packet_power_db(const CsiPacket& packet) {
  double p = 0.0;
  for (const auto& v : packet.csi.flat()) p += std::norm(v);
  return 10.0 * std::log10(std::max(p, 1e-300));
}

}  // namespace

QualityVerdict screen_packet(const CsiPacket& packet,
                             const QualityConfig& config) {
  if (packet.csi.empty()) return {false, "empty CSI matrix"};

  if (config.check_finite) {
    for (const auto& v : packet.csi.flat()) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        return {false, "non-finite CSI entry"};
      }
    }
    if (!std::isfinite(packet.rssi_dbm)) return {false, "non-finite RSSI"};
  }

  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t m = 0; m < packet.csi.rows(); ++m) {
    double p = 0.0;
    for (const auto& v : packet.csi.row(m)) p += std::norm(v);
    if (config.check_dead_antenna && p < config.dead_antenna_floor) {
      return {false, "dead antenna row " + std::to_string(m)};
    }
    const double row_db = 10.0 * std::log10(std::max(p, 1e-300));
    lo = std::min(lo, row_db);
    hi = std::max(hi, row_db);
  }
  if (hi - lo > config.max_antenna_imbalance_db) {
    return {false, "antenna power imbalance"};
  }
  return {};
}

std::vector<CsiPacket> screen_group(std::span<const CsiPacket> packets,
                                    const QualityConfig& config,
                                    std::vector<std::string>* rejected) {
  std::vector<CsiPacket> accepted;
  if (screen_group_view(packets, config, thread_workspace(), accepted,
                        rejected).size() == packets.size()) {
    accepted.assign(packets.begin(), packets.end());
  }
  return accepted;
}

std::span<const CsiPacket> screen_group_view(
    std::span<const CsiPacket> packets, const QualityConfig& config,
    Workspace& ws, std::vector<CsiPacket>& storage,
    std::vector<std::string>* rejected) {
  if (packets.empty()) return packets;

  // Group power reference: median of the per-packet powers.
  Workspace::Frame frame(ws);
  const std::span<double> powers = ws.take<double>(packets.size());
  const std::span<double> sorted = ws.take<double>(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    powers[i] = sorted[i] = packet_power_db(packets[i]);
  }
  const double reference = percentile_in_place(sorted, 50.0);

  const std::span<bool> keep = ws.take<bool>(packets.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    QualityVerdict verdict = screen_packet(packets[i], config);
    if (verdict.ok &&
        std::abs(powers[i] - reference) > config.max_power_jump_db) {
      verdict = {false, "power jump vs group median"};
    }
    keep[i] = verdict.ok;
    if (verdict.ok) {
      ++kept;
    } else if (rejected != nullptr) {
      rejected->push_back("packet " + std::to_string(i) + ": " +
                          verdict.reason);
    }
  }
  if (kept == packets.size()) return packets;
  storage.clear();
  storage.reserve(kept);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (keep[i]) storage.push_back(packets[i]);
  }
  return storage;
}

}  // namespace spotfi
