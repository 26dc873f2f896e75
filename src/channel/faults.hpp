// Fault injection for CSI streams.
//
// Real distributed CSI acquisition is dirty in ways the channel simulator
// alone never shows: receivers crash and come back, capture processes fall
// behind and deliver packets late or out of order, firmware emits frozen
// timestamps, parsing races corrupt records with NaNs, RF chains die, and
// AGC glitches clip whole packets. The software-defined CSI testbeds this
// reproduction targets report exactly these as the dominant operational
// failure modes, so the streaming pipeline must be exercised against them.
//
// FaultInjector sits between a packet source (the synthesizer or a trace)
// and the consumer (StreamingLocalizer), applying a seeded, per-AP fault
// profile to every packet. All randomness flows from the caller's Rng, so
// a fault scenario is exactly reproducible — the same seed produces the
// same outages, the same corrupted entries, the same reorderings.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "channel/csi_synthesis.hpp"
#include "common/rng.hpp"

namespace spotfi {

/// A half-open time window [start_s, end_s) during which a fault is active.
struct FaultWindow {
  double start_s = 0.0;
  double end_s = 0.0;
  [[nodiscard]] bool contains(double t_s) const {
    return t_s >= start_s && t_s < end_s;
  }
};

/// Per-AP fault profile. Defaults are all-clean; enable individual faults
/// per scenario. Probabilities are i.i.d. per packet.
struct ApFaultProfile {
  /// Silent AP death: packets inside any window are swallowed entirely
  /// (the AP "crashed"); delivery resumes after the window (recovery).
  std::vector<FaultWindow> outages;
  /// Random packet loss (congested capture pipe, dropped UDP export).
  double loss_prob = 0.0;
  /// Hold a packet and release it after `reorder_delay` later packets
  /// from the same AP — delivery order no longer matches capture order.
  double reorder_prob = 0.0;
  std::size_t reorder_delay = 1;
  /// Freeze the timestamp: repeat the previously delivered timestamp
  /// (firmware clock stall), making the packet look stale.
  double stale_prob = 0.0;
  /// Corrupt a burst of 4 consecutive CSI entries with NaN (parsing
  /// race).
  double nan_burst_prob = 0.0;
  /// Persistently dead RF chain: this antenna row is zeroed on every
  /// packet. Negative = none.
  int dead_chain = -1;
  /// Power-clipped packet: scale the CSI by `clip_gain_db` (saturated
  /// front end); the quality screen's power-jump check should catch it.
  double clip_prob = 0.0;
  double clip_gain_db = 30.0;
};

/// Fault plan for a whole deployment: one profile per AP id. APs beyond
/// the vector are clean.
struct FaultPlan {
  std::vector<ApFaultProfile> aps;
  [[nodiscard]] const ApFaultProfile& profile(std::size_t ap_id) const;
};

/// Counters for every fault actually injected (not just configured).
struct FaultStats {
  std::size_t outage_swallowed = 0;
  std::size_t lost = 0;
  std::size_t reordered = 0;
  std::size_t stale_stamped = 0;
  std::size_t nan_corrupted = 0;
  std::size_t dead_chain_zeroed = 0;
  std::size_t clipped = 0;
  std::size_t delivered = 0;
};

/// Applies a FaultPlan to a packet stream, AP by AP.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::size_t n_aps);

  /// Feeds one captured packet from `ap_id` and returns the packets the
  /// consumer actually receives at this instant: empty when the packet was
  /// swallowed (outage/loss) or held for reordering, more than one when a
  /// held packet is released behind the current one.
  [[nodiscard]] std::vector<CsiPacket> inject(std::size_t ap_id,
                                              const CsiPacket& packet,
                                              Rng& rng);

  /// True when `ap_id` is inside a configured outage window at `t_s`.
  [[nodiscard]] bool in_outage(std::size_t ap_id, double t_s) const;

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t ap_count() const { return state_.size(); }

 private:
  struct HeldPacket {
    CsiPacket packet;
    std::size_t release_after;  ///< countdown in subsequent packets
  };
  struct ApState {
    std::deque<HeldPacket> held;
    double last_delivered_t_s = 0.0;
    bool any_delivered = false;
  };

  /// In-place corruption faults (NaN burst, dead chain, clipping, stale
  /// timestamp). Returns the possibly-corrupted packet.
  [[nodiscard]] CsiPacket corrupt(const ApFaultProfile& profile,
                                  ApState& state, CsiPacket packet, Rng& rng);

  FaultPlan plan_;
  std::vector<ApState> state_;
  FaultStats stats_;
};

// ---------------------------------------------------------------------------
// Byte-level log corruption — the serialized-capture complement of
// FaultInjector's packet-level faults. Where FaultInjector damages decoded
// packets in flight, these routines damage the *bytes* of a csitool .dat
// or SPFI trace file the way disks, NFS mounts, and crashing capture
// processes do: flipped bits, frames cut off mid-record, garbage runs
// spliced between frames, duplicated frames, and tampered framing fields.
// All randomness flows from the caller's Rng, so a corruption scenario is
// exactly reproducible; the same seed damages the same frames the same
// way. Used by the ingest tests and as the mutation engine of the fuzz
// harness's deterministic smoke mode.

/// Per-frame corruption probabilities (i.i.d. per frame). Defaults are
/// all-clean.
struct ByteFaultPlan {
  /// Flip one random bit somewhere in the frame.
  double bit_flip_prob = 0.0;
  /// Cut the frame off mid-record (its tail never reaches the log).
  double truncate_prob = 0.0;
  /// Splice a run of 1 to 32 random garbage bytes in front of the frame.
  double garbage_prob = 0.0;
  /// Emit the frame twice (retransmitted/duplicated capture).
  double duplicate_prob = 0.0;
  /// When > 0, each duplicate copy resurfaces after a uniform 0..gap_max
  /// *later frames* instead of immediately behind its original — the way
  /// a real retransmission lands after newer captures already made it to
  /// the log. 0 keeps the copy adjacent (and draws no extra randomness,
  /// so existing seeded scenarios replay unchanged). Copies still in
  /// flight when the log ends are appended at the tail.
  std::size_t duplicate_gap_max = 0;
  /// Clobber the frame's framing field (csitool: the u16 big-endian
  /// length; trace: the Nrx shape byte) with a random value.
  double length_tamper_prob = 0.0;
};

/// What was actually damaged (not just configured).
struct ByteFaultStats {
  std::size_t frames_bit_flipped = 0;
  std::size_t frames_truncated = 0;
  std::size_t garbage_runs = 0;
  std::size_t garbage_bytes = 0;
  std::size_t frames_duplicated = 0;
  std::size_t frames_length_tampered = 0;
  /// Indices (in frame order of the pristine log) of frames whose own
  /// bytes were damaged — flipped, truncated, or tampered. Garbage and
  /// duplication leave the frame itself intact and are not listed.
  std::vector<std::size_t> corrupted_frames;

  [[nodiscard]] std::size_t frames_corrupted() const {
    return corrupted_frames.size();
  }
};

/// Corrupts a well-formed csitool .dat log (as produced by
/// write_csitool_log). Frame boundaries are taken from the pristine
/// input's length fields; the returned bytes are the damaged log.
[[nodiscard]] std::vector<std::uint8_t> corrupt_csitool_log(
    std::span<const std::uint8_t> log, const ByteFaultPlan& plan, Rng& rng,
    ByteFaultStats* stats = nullptr);

/// Corrupts a well-formed SPFI trace (as produced by write_trace). The
/// file header is left intact — a damaged preamble kills the whole file
/// by design (IngestErrorKind::kBadFileHeader) and is exercised
/// separately; record spans are derived from the header's shape bytes.
[[nodiscard]] std::vector<std::uint8_t> corrupt_trace_log(
    std::span<const std::uint8_t> log, const ByteFaultPlan& plan, Rng& rng,
    ByteFaultStats* stats = nullptr);

/// Corrupts a well-formed durability journal (as produced by WalWriter;
/// see durability/wal.hpp). The 12-byte file header is left intact — a
/// damaged header discards the whole journal by design
/// (DurabilityErrorKind::kBadFileHeader) and is exercised separately;
/// record spans are derived from the length-prefix framing, and the
/// tamper fault clobbers that length field.
[[nodiscard]] std::vector<std::uint8_t> corrupt_wal_log(
    std::span<const std::uint8_t> log, const ByteFaultPlan& plan, Rng& rng,
    ByteFaultStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Numerical fault injection — degenerate *values*, not damaged structure.
// Where FaultInjector models operational failures and the byte faults
// model storage corruption, these produce packets that are perfectly
// well-formed yet push the estimation kernels to the edge of floating
// point: rank-collapsed covariances from fully coherent multipath,
// near-singular perturbations of them, NaN/Inf poisoning, denormal
// underflow, and dynamic ranges that overflow naive norm computations.
// Used by the degenerate-input stress suite to assert the pipeline
// degrades with a recorded reason instead of throwing or emitting
// non-finite locations.

/// The numerical degeneracy classes the stress suite iterates over.
enum class NumericalFaultKind : std::uint8_t {
  kRankCollapse,           ///< fully coherent paths: exactly rank-1 CSI
  kNearSingularCovariance, ///< rank-1 plus an O(1e-12) relative perturbation
  kNanCsi,                 ///< a burst of NaN entries
  kInfCsi,                 ///< a burst of Inf entries
  kDenormalCsi,            ///< all entries scaled into denormal range
  kHugeDynamicRange,       ///< one antenna row scaled by 1e150
};

inline constexpr std::size_t kNumericalFaultKindCount = 6;

[[nodiscard]] const char* to_string(NumericalFaultKind kind);

/// `n` propagation paths sharing one AoA/ToF (a specular bundle with zero
/// angular spread): their steering vectors are identical, so the ideal
/// CSI they synthesize is exactly rank one — the worst case for the
/// smoothed-covariance eigendecomposition. Gains/phases vary per path.
[[nodiscard]] std::vector<PathComponent> coherent_path_group(
    std::size_t n, double aoa_rad, double tof_s, double gain_db, Rng& rng);

/// Replaces/overwrites `packet.csi` with the degeneracy selected by
/// `kind` (rank collapse synthesizes fresh CSI from a coherent bundle;
/// the value faults corrupt the existing matrix in place). The packet
/// stays structurally valid: correct shape, finite RSSI untouched.
void inject_numerical_fault(CsiPacket& packet, NumericalFaultKind kind,
                            const LinkConfig& link, Rng& rng);

}  // namespace spotfi
