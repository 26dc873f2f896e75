// CSI packet quality screening.
//
// Real CSI feeds are dirty: the firmware occasionally emits corrupted
// records (all-zero rows after an AGC glitch, NaNs from parsing races,
// saturated I/Q, wild power jumps when a packet is clipped). SpotFi's
// clustering tolerates a few bad packets but a screen at ingestion keeps
// them from ever reaching the estimator. The checks are cheap (O(M*N)
// per packet) and conservative: they only reject packets that could not
// be a plausible channel observation.
#pragma once

#include <string>

#include "channel/csi_synthesis.hpp"
#include "common/workspace.hpp"

namespace spotfi {

struct QualityConfig {
  /// Reject when any entry is non-finite.
  bool check_finite = true;
  /// Reject when any antenna row is all (near) zero.
  bool check_dead_antenna = true;
  double dead_antenna_floor = 1e-9;
  /// Reject when per-antenna powers differ by more than this [dB]
  /// (an AGC glitch or a dead RF chain; real chains sit within ~10 dB).
  double max_antenna_imbalance_db = 25.0;
  /// Reject when a packet's total power jumps by more than this [dB]
  /// relative to the running median of the group (clipped packet).
  double max_power_jump_db = 20.0;
};

struct QualityVerdict {
  bool ok = true;
  std::string reason;  ///< empty when ok
};

/// Screens one packet in isolation (finite, dead antenna, imbalance).
[[nodiscard]] QualityVerdict screen_packet(const CsiPacket& packet,
                                           const QualityConfig& config = {});

/// Screens a packet group: per-packet checks plus the power-jump check
/// against the group median. Returns the accepted subset, preserving
/// order. `rejected` (optional) receives one reason per dropped packet.
[[nodiscard]] std::vector<CsiPacket> screen_group(
    std::span<const CsiPacket> packets, const QualityConfig& config = {},
    std::vector<std::string>* rejected = nullptr);

/// screen_group that copies only a dirty group: returns `packets` itself
/// when every packet passes, else the accepted subset written into
/// `storage`. Scratch comes from `ws`, so a clean group on a warmed arena
/// touches no heap.
[[nodiscard]] std::span<const CsiPacket> screen_group_view(
    std::span<const CsiPacket> packets, const QualityConfig& config,
    Workspace& ws, std::vector<CsiPacket>& storage,
    std::vector<std::string>* rejected = nullptr);

}  // namespace spotfi
