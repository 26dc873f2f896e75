#include "channel/faults.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace spotfi {

namespace {
const ApFaultProfile kCleanProfile{};
/// CSI entries one NaN burst overwrites.
constexpr std::size_t kNanBurstLen = 4;
/// Bits one bit-flip fault flips, and the longest garbage run [bytes].
constexpr std::size_t kBitsPerFlip = 1;
constexpr std::size_t kGarbageLenMax = 32;
}  // namespace

const ApFaultProfile& FaultPlan::profile(std::size_t ap_id) const {
  return ap_id < aps.size() ? aps[ap_id] : kCleanProfile;
}

FaultInjector::FaultInjector(FaultPlan plan, std::size_t n_aps)
    : plan_(std::move(plan)), state_(n_aps) {
  SPOTFI_EXPECTS(plan_.aps.size() <= n_aps,
                 "fault plan names more APs than the deployment has");
  for (const auto& profile : plan_.aps) {
    for (const auto& w : profile.outages) {
      SPOTFI_EXPECTS(w.end_s >= w.start_s, "outage window ends before start");
    }
  }
}

bool FaultInjector::in_outage(std::size_t ap_id, double t_s) const {
  SPOTFI_EXPECTS(ap_id < state_.size(), "unknown AP id");
  for (const auto& w : plan_.profile(ap_id).outages) {
    if (w.contains(t_s)) return true;
  }
  return false;
}

CsiPacket FaultInjector::corrupt(const ApFaultProfile& profile, ApState& state,
                                 CsiPacket packet, Rng& rng) {
  if (profile.stale_prob > 0.0 && state.any_delivered &&
      rng.uniform() < profile.stale_prob) {
    packet.timestamp_s = state.last_delivered_t_s;
    ++stats_.stale_stamped;
  }
  if (!packet.csi.empty()) {
    if (profile.dead_chain >= 0 &&
        static_cast<std::size_t>(profile.dead_chain) < packet.csi.rows()) {
      for (std::size_t n = 0; n < packet.csi.cols(); ++n) {
        packet.csi(static_cast<std::size_t>(profile.dead_chain), n) = cplx{};
      }
      ++stats_.dead_chain_zeroed;
    }
    if (profile.nan_burst_prob > 0.0 &&
        rng.uniform() < profile.nan_burst_prob) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      const std::size_t total = packet.csi.rows() * packet.csi.cols();
      const std::size_t burst = std::min(kNanBurstLen, total);
      const std::size_t start = rng.uniform_index(total - burst + 1);
      for (std::size_t k = start; k < start + burst; ++k) {
        packet.csi(k / packet.csi.cols(), k % packet.csi.cols()) =
            cplx(nan, nan);
      }
      ++stats_.nan_corrupted;
    }
    if (profile.clip_prob > 0.0 && rng.uniform() < profile.clip_prob) {
      const double scale = std::pow(10.0, profile.clip_gain_db / 20.0);
      for (auto& v : packet.csi.flat()) v *= scale;
      ++stats_.clipped;
    }
  }
  return packet;
}

std::vector<CsiPacket> FaultInjector::inject(std::size_t ap_id,
                                             const CsiPacket& packet,
                                             Rng& rng) {
  SPOTFI_EXPECTS(ap_id < state_.size(), "unknown AP id");
  const ApFaultProfile& profile = plan_.profile(ap_id);
  ApState& state = state_[ap_id];

  std::vector<CsiPacket> out;

  // Count down held packets first: a swallowed packet still represents
  // elapsed stream time, so releases happen even across losses.
  for (auto& h : state.held) {
    if (h.release_after > 0) --h.release_after;
  }

  const bool swallowed = [&] {
    if (in_outage(ap_id, packet.timestamp_s)) {
      ++stats_.outage_swallowed;
      return true;
    }
    if (profile.loss_prob > 0.0 && rng.uniform() < profile.loss_prob) {
      ++stats_.lost;
      return true;
    }
    return false;
  }();

  if (!swallowed) {
    CsiPacket delivered = corrupt(profile, state, packet, rng);
    if (profile.reorder_prob > 0.0 && rng.uniform() < profile.reorder_prob) {
      state.held.push_back(
          {std::move(delivered), std::max<std::size_t>(profile.reorder_delay, 1)});
      ++stats_.reordered;
    } else {
      out.push_back(std::move(delivered));
    }
  }

  // Release any held packets whose delay has elapsed (behind the current
  // packet — that is the reordering).
  while (!state.held.empty() && state.held.front().release_after == 0) {
    out.push_back(std::move(state.held.front().packet));
    state.held.pop_front();
  }

  for (const auto& p : out) {
    state.last_delivered_t_s = p.timestamp_s;
    state.any_delivered = true;
    ++stats_.delivered;
  }
  return out;
}

namespace {

/// Applies the per-frame byte faults to `log`, whose frames live at the
/// half-open spans [off, off+len) listed in `frames`; `preamble` bytes at
/// the front (the trace file header) are copied through untouched.
/// `tamper_off`/`tamper_len` locate the format's framing field within a
/// frame.
std::vector<std::uint8_t> corrupt_spans(
    std::span<const std::uint8_t> log,
    std::span<const std::pair<std::size_t, std::size_t>> frames,
    std::size_t preamble, std::size_t tamper_off, std::size_t tamper_len,
    const ByteFaultPlan& plan, Rng& rng, ByteFaultStats* stats) {
  ByteFaultStats local;
  std::vector<std::uint8_t> out;
  out.reserve(log.size());
  out.insert(out.end(), log.begin(), log.begin() + preamble);

  /// Duplicate copies waiting to resurface `after` frames from now.
  struct PendingDup {
    std::vector<std::uint8_t> bytes;
    std::size_t after;
  };
  std::vector<PendingDup> in_flight;

  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto [off, len] = frames[i];
    if (plan.garbage_prob > 0.0 && rng.uniform() < plan.garbage_prob) {
      const std::size_t n = 1 + rng.uniform_index(kGarbageLenMax);
      for (std::size_t k = 0; k < n; ++k) {
        out.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
      }
      ++local.garbage_runs;
      local.garbage_bytes += n;
    }

    frame.assign(log.begin() + off, log.begin() + off + len);
    bool corrupted = false;
    if (plan.length_tamper_prob > 0.0 &&
        rng.uniform() < plan.length_tamper_prob) {
      for (std::size_t k = 0; k < tamper_len && tamper_off + k < frame.size();
           ++k) {
        // XOR with a nonzero mask so the field is guaranteed to change.
        frame[tamper_off + k] ^=
            static_cast<std::uint8_t>(1 + rng.uniform_index(255));
      }
      ++local.frames_length_tampered;
      corrupted = true;
    }
    if (plan.bit_flip_prob > 0.0 && rng.uniform() < plan.bit_flip_prob) {
      for (std::size_t b = 0; b < kBitsPerFlip; ++b) {
        const std::size_t bit = rng.uniform_index(frame.size() * 8);
        frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      ++local.frames_bit_flipped;
      corrupted = true;
    }
    if (plan.truncate_prob > 0.0 && frame.size() > 1 &&
        rng.uniform() < plan.truncate_prob) {
      frame.resize(1 + rng.uniform_index(frame.size() - 1));
      ++local.frames_truncated;
      corrupted = true;
    }
    const bool duplicate =
        plan.duplicate_prob > 0.0 && rng.uniform() < plan.duplicate_prob;

    out.insert(out.end(), frame.begin(), frame.end());
    if (duplicate) {
      ++local.frames_duplicated;
      std::size_t gap = 0;
      if (plan.duplicate_gap_max > 0) {
        gap = rng.uniform_index(plan.duplicate_gap_max + 1);
      }
      if (gap == 0) {
        out.insert(out.end(), frame.begin(), frame.end());
      } else {
        // Cross-frame duplication: the copy lands behind `gap` newer
        // frames, like a retransmission overtaken by fresh captures.
        in_flight.push_back(PendingDup{frame, gap + 1});
      }
    }
    if (corrupted) local.corrupted_frames.push_back(i);
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (--it->after == 0) {
        out.insert(out.end(), it->bytes.begin(), it->bytes.end());
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Copies whose gap outran the log surface at the tail.
  for (const PendingDup& dup : in_flight) {
    out.insert(out.end(), dup.bytes.begin(), dup.bytes.end());
  }

  if (stats != nullptr) *stats = std::move(local);
  return out;
}

}  // namespace

std::vector<std::uint8_t> corrupt_csitool_log(
    std::span<const std::uint8_t> log, const ByteFaultPlan& plan, Rng& rng,
    ByteFaultStats* stats) {
  // Frame walk over the pristine input: u16 big-endian length + body.
  std::vector<std::pair<std::size_t, std::size_t>> frames;
  std::size_t off = 0;
  while (off < log.size()) {
    SPOTFI_EXPECTS(off + 2 <= log.size(),
                   "corrupt_csitool_log: input log has a partial frame");
    const std::size_t field_len =
        (static_cast<std::size_t>(log[off]) << 8) | log[off + 1];
    SPOTFI_EXPECTS(field_len > 0 && off + 2 + field_len <= log.size(),
                   "corrupt_csitool_log: input log is not well-formed");
    frames.emplace_back(off, 2 + field_len);
    off += 2 + field_len;
  }
  return corrupt_spans(log, frames, /*preamble=*/0, /*tamper_off=*/0,
                       /*tamper_len=*/2, plan, rng, stats);
}

std::vector<std::uint8_t> corrupt_trace_log(
    std::span<const std::uint8_t> log, const ByteFaultPlan& plan, Rng& rng,
    ByteFaultStats* stats) {
  constexpr std::size_t kHeaderSize = 4 + 2 + 3 * 8 + 1 + 1;
  SPOTFI_EXPECTS(log.size() >= kHeaderSize,
                 "corrupt_trace_log: input shorter than the trace header");
  const std::size_t n_antennas = log[30];
  const std::size_t n_subcarriers = log[31];
  SPOTFI_EXPECTS(n_antennas > 0 && n_subcarriers > 0,
                 "corrupt_trace_log: input header has zero shape");
  const std::size_t pitch = (8 + 7 + 4) + 2 * n_antennas * n_subcarriers;
  SPOTFI_EXPECTS((log.size() - kHeaderSize) % pitch == 0,
                 "corrupt_trace_log: input log is not well-formed");

  std::vector<std::pair<std::size_t, std::size_t>> frames;
  for (std::size_t off = kHeaderSize; off < log.size(); off += pitch) {
    frames.emplace_back(off, pitch);
  }
  // Tamper the Nrx shape byte at record offset 8 — the field TraceReader
  // trusts for framing, the moral equivalent of the csitool length field.
  return corrupt_spans(log, frames, /*preamble=*/kHeaderSize,
                       /*tamper_off=*/8, /*tamper_len=*/1, plan, rng, stats);
}

std::vector<std::uint8_t> corrupt_wal_log(std::span<const std::uint8_t> log,
                                          const ByteFaultPlan& plan, Rng& rng,
                                          ByteFaultStats* stats) {
  constexpr std::size_t kHeaderSize = 12;  // 8B magic + u32 version
  constexpr std::size_t kFrameSize = 13;   // u32 len + u8 type + u64 checksum
  SPOTFI_EXPECTS(log.size() >= kHeaderSize,
                 "corrupt_wal_log: input shorter than the journal header");
  std::vector<std::pair<std::size_t, std::size_t>> frames;
  std::size_t off = kHeaderSize;
  while (off < log.size()) {
    SPOTFI_EXPECTS(off + kFrameSize <= log.size(),
                   "corrupt_wal_log: input journal has a partial frame");
    std::size_t payload_len = 0;
    for (int i = 0; i < 4; ++i) {
      payload_len |= static_cast<std::size_t>(log[off + i]) << (8 * i);
    }
    SPOTFI_EXPECTS(off + kFrameSize + payload_len <= log.size(),
                   "corrupt_wal_log: input journal is not well-formed");
    frames.emplace_back(off, kFrameSize + payload_len);
    off += kFrameSize + payload_len;
  }
  // Tamper the little-endian u32 length prefix — the field the WAL
  // scanner trusts for framing.
  return corrupt_spans(log, frames, /*preamble=*/kHeaderSize,
                       /*tamper_off=*/0, /*tamper_len=*/4, plan, rng, stats);
}

const char* to_string(NumericalFaultKind kind) {
  switch (kind) {
    case NumericalFaultKind::kRankCollapse: return "rank-collapse";
    case NumericalFaultKind::kNearSingularCovariance:
      return "near-singular-covariance";
    case NumericalFaultKind::kNanCsi: return "nan-csi";
    case NumericalFaultKind::kInfCsi: return "inf-csi";
    case NumericalFaultKind::kDenormalCsi: return "denormal-csi";
    case NumericalFaultKind::kHugeDynamicRange: return "huge-dynamic-range";
  }
  return "unknown";
}

std::vector<PathComponent> coherent_path_group(std::size_t n, double aoa_rad,
                                               double tof_s, double gain_db,
                                               Rng& rng) {
  SPOTFI_EXPECTS(n >= 1, "coherent_path_group needs at least one path");
  std::vector<PathComponent> paths(n);
  for (std::size_t k = 0; k < n; ++k) {
    auto& p = paths[k];
    p.aoa_rad = aoa_rad;
    p.tof_s = tof_s;
    p.gain_db = gain_db - rng.uniform(0.0, 6.0);
    p.phase_rad = rng.uniform(0.0, 2.0 * kPi);
    p.is_direct = k == 0;
  }
  return paths;
}

void inject_numerical_fault(CsiPacket& packet, NumericalFaultKind kind,
                            const LinkConfig& link, Rng& rng) {
  SPOTFI_EXPECTS(!packet.csi.empty(), "packet carries no CSI to corrupt");

  switch (kind) {
    case NumericalFaultKind::kRankCollapse:
    case NumericalFaultKind::kNearSingularCovariance: {
      // Fully coherent bundle: identical steering vectors, so the ideal
      // (noise-free) CSI is the outer product of one steering pair —
      // exactly rank one across antennas and perfectly correlated across
      // subcarriers.
      const CsiSynthesizer synth(link, ImpairmentConfig{});
      const std::vector<PathComponent> bundle = coherent_path_group(
          /*n=*/4, /*aoa_rad=*/rng.uniform(-0.8, 0.8),
          /*tof_s=*/rng.uniform(20e-9, 60e-9), /*gain_db=*/-50.0, rng);
      packet.csi = synth.ideal_csi(bundle);
      if (kind == NumericalFaultKind::kNearSingularCovariance) {
        // Perturb at the edge of double precision: the covariance is no
        // longer exactly singular, just catastrophically ill-conditioned.
        double scale = 0.0;
        for (const auto& v : packet.csi.flat()) {
          scale = std::max(scale, std::abs(v));
        }
        for (auto& v : packet.csi.flat()) {
          v += 1e-12 * scale * cplx(rng.normal(), rng.normal());
        }
      }
      break;
    }
    case NumericalFaultKind::kNanCsi:
    case NumericalFaultKind::kInfCsi: {
      const double bad = kind == NumericalFaultKind::kNanCsi
                             ? std::numeric_limits<double>::quiet_NaN()
                             : std::numeric_limits<double>::infinity();
      const std::size_t total = packet.csi.rows() * packet.csi.cols();
      const std::size_t burst = std::min<std::size_t>(6, total);
      const std::size_t start = rng.uniform_index(total - burst + 1);
      for (std::size_t k = start; k < start + burst; ++k) {
        packet.csi(k / packet.csi.cols(), k % packet.csi.cols()) =
            cplx(bad, bad);
      }
      break;
    }
    case NumericalFaultKind::kDenormalCsi: {
      // Scale so the largest magnitude lands near 1e-310 — every entry is
      // denormal (or flushed to zero under FTZ), squared magnitudes
      // underflow to exactly 0.
      double scale = 0.0;
      for (const auto& v : packet.csi.flat()) {
        scale = std::max(scale, std::abs(v));
      }
      const double factor = scale > 0.0 ? 1e-310 / scale : 0.0;
      for (auto& v : packet.csi.flat()) {
        v = cplx(v.real() * factor, v.imag() * factor);
      }
      break;
    }
    case NumericalFaultKind::kHugeDynamicRange: {
      // One antenna row 150 orders of magnitude above the rest: gram
      // entries reach 1e300, and any squared norm over the full matrix
      // overflows to Inf unless scaled.
      const std::size_t row = rng.uniform_index(packet.csi.rows());
      for (std::size_t n = 0; n < packet.csi.cols(); ++n) {
        packet.csi(row, n) *= 1e150;
      }
      break;
    }
  }
}

}  // namespace spotfi
