#include "core/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace spotfi {
namespace {

/// Fire a deadline round only with at least this many full groups.
constexpr std::size_t kMinQuorum = 2;
static_assert(kMinQuorum >= 2, "a fix needs at least two APs");
/// An AP with fewer buffered packets than this contributes nothing to a
/// deadline round (a too-small group only adds clustering noise).
constexpr std::size_t kMinGroupPackets = 3;

}  // namespace

const char* to_string(ApHealth health) {
  switch (health) {
    case ApHealth::kHealthy: return "healthy";
    case ApHealth::kDegraded: return "degraded";
    case ApHealth::kDead: return "dead";
  }
  return "unknown";
}

StreamingLocalizer::StreamingLocalizer(LinkConfig link,
                                       StreamingConfig config)
    : link_(link),
      config_(std::move(config)),
      server_(link_, config_.server),
      tracker_(config_.tracker) {
  SPOTFI_EXPECTS(config_.group_size >= 1, "group_size must be positive");
  const DegradationConfig& d = config_.degradation;
  SPOTFI_EXPECTS(d.round_deadline_s >= 0.0, "round_deadline_s must be >= 0");
  SPOTFI_EXPECTS(d.dead_after_s >= d.degraded_after_s,
                 "dead_after_s must be >= degraded_after_s");
}

std::size_t StreamingLocalizer::add_ap(const ArrayPose& pose) {
  buffers_.push_back({pose, {}, {}});
  return buffers_.size() - 1;
}

std::size_t StreamingLocalizer::buffered(std::size_t ap_id) const {
  SPOTFI_EXPECTS(ap_id < buffers_.size(), "unknown AP id");
  return buffers_[ap_id].packets.size();
}

ApHealth StreamingLocalizer::ap_health(std::size_t ap_id) const {
  return ap_state(ap_id).health;
}

const ApHealthState& StreamingLocalizer::ap_state(std::size_t ap_id) const {
  SPOTFI_EXPECTS(ap_id < buffers_.size(), "unknown AP id");
  return buffers_[ap_id].state;
}

void StreamingLocalizer::age_out(double now_s) {
  for (auto& b : buffers_) {
    while (!b.packets.empty() &&
           now_s - b.packets.front().timestamp_s > config_.max_packet_age_s) {
      b.packets.pop_front();
    }
  }
}

void StreamingLocalizer::update_health(double now_s) {
  if (!stream_start_s_) return;  // nothing has flowed yet
  const DegradationConfig& d = config_.degradation;
  for (auto& b : buffers_) {
    // An AP that never delivered has been silent since the stream began.
    const double last = b.state.accepted > 0 ? b.state.last_accepted_s
                                             : *stream_start_s_;
    const double silence = now_s - last;
    ApHealth next = ApHealth::kHealthy;
    if (silence >= d.dead_after_s) {
      next = ApHealth::kDead;
    } else if (silence >= d.degraded_after_s) {
      next = ApHealth::kDegraded;
    }
    if (next != b.state.health) {
      if (b.state.health == ApHealth::kDead && next == ApHealth::kHealthy) {
        ++b.state.recoveries;
      }
      b.state.health = next;
    }
  }
}

void StreamingLocalizer::ingest_packet(std::size_t ap_id, CsiPacket packet) {
  if (ap_id >= buffers_.size()) {
    throw ContractViolation(
        "StreamingLocalizer::push: unknown AP id " + std::to_string(ap_id) +
        " (" + std::to_string(buffers_.size()) + " APs registered)");
  }
  SPOTFI_EXPECTS(buffers_.size() >= 2, "register at least two APs first");

  now_s_ = std::max(now_s_, packet.timestamp_s);
  if (!stream_start_s_) stream_start_s_ = packet.timestamp_s;

  auto& buffer = buffers_[ap_id];
  bool accepted = true;
  if (config_.screen_packets) {
    const QualityVerdict verdict =
        screen_packet(packet, config_.server.ap.quality);
    if (!verdict.ok) {
      ++rejected_;
      ++buffer.state.rejected;
      accepted = false;
    }
  }
  if (accepted) {
    ++buffer.state.accepted;
    buffer.state.last_accepted_s =
        std::max(buffer.state.last_accepted_s, packet.timestamp_s);
    if (std::isnan(buffer.state.last_accepted_s)) {
      buffer.state.last_accepted_s = packet.timestamp_s;
    }
    buffer.packets.push_back(std::move(packet));
  }

  age_out(now_s_);
  update_health(now_s_);
}

std::optional<LocationFix> StreamingLocalizer::push(std::size_t ap_id,
                                                    CsiPacket packet,
                                                    Rng& rng) {
  auto pending = push_deferred(ap_id, std::move(packet), rng);
  if (!pending) return std::nullopt;
  execute_round(*pending);
  return complete_round(std::move(*pending));
}

std::optional<PendingRound> StreamingLocalizer::push_deferred(
    std::size_t ap_id, CsiPacket packet, Rng& rng, const RoundPlan& plan) {
  ingest_packet(ap_id, std::move(packet));
  return maybe_prepare(now_s_, rng, plan);
}

std::optional<PendingRound> StreamingLocalizer::poll_deferred(
    double now_s, Rng& rng, const RoundPlan& plan) {
  if (buffers_.size() < 2) return std::nullopt;
  now_s_ = std::max(now_s_, now_s);
  age_out(now_s_);
  update_health(now_s_);
  return maybe_prepare(now_s_, rng, plan);
}

std::vector<LocationFix> StreamingLocalizer::ingest(std::size_t ap_id,
                                                    TraceReader& reader,
                                                    Rng& rng) {
  SPOTFI_EXPECTS(ap_id < buffers_.size(), "unknown AP id");
  std::vector<LocationFix> fixes;
  std::size_t shape_drops = 0;
  while (auto item = reader.next()) {
    if (!*item) continue;  // already tallied in the reader's report
    CsiPacket& packet = item->value();
    if (packet.csi.rows() != link_.n_antennas ||
        packet.csi.cols() != link_.n_subcarriers) {
      // A valid capture from a different array geometry: unusable for
      // this deployment, but not worth aborting the replay over.
      ++shape_drops;
      continue;
    }
    if (auto fix = push(ap_id, std::move(packet), rng)) {
      fixes.push_back(std::move(*fix));
    }
  }
  // Reclassify shape-dropped records so the merged account stays
  // consistent: they were well-formed bytes, but no record reached the
  // pipeline for them.
  IngestReport merged = reader.report();
  merged.records_accepted -= shape_drops;
  merged.dropped[static_cast<std::size_t>(IngestErrorKind::kPayloadMismatch)] +=
      shape_drops;
  note_ingest(merged);
  return fixes;
}

void StreamingLocalizer::note_ingest(const IngestReport& report) {
  ingest_report_.merge(report);
}

std::optional<LocationFix> StreamingLocalizer::poll(double now_s, Rng& rng) {
  auto pending = poll_deferred(now_s, rng);
  if (!pending) return std::nullopt;
  execute_round(*pending);
  return complete_round(std::move(*pending));
}

std::optional<PendingRound> StreamingLocalizer::maybe_prepare(
    double now_s, Rng& rng, const RoundPlan& plan) {
  const DegradationConfig& d = config_.degradation;

  std::vector<std::size_t> ready;   // full group buffered
  std::vector<std::size_t> usable;  // enough packets for a partial group
  std::size_t live = 0, live_ready = 0;
  const std::size_t partial_floor =
      std::min(kMinGroupPackets, config_.group_size);
  for (std::size_t a = 0; a < buffers_.size(); ++a) {
    const auto& b = buffers_[a];
    const bool full = b.packets.size() >= config_.group_size;
    if (full) ready.push_back(a);
    if (b.packets.size() >= partial_floor) usable.push_back(a);
    if (b.state.health != ApHealth::kDead) {
      ++live;
      if (full) ++live_ready;
    }
  }

  // Strict path (degradation off, or nothing is wrong): every registered
  // AP has a full group.
  if (ready.size() == buffers_.size()) {
    armed_since_s_.reset();
    return prepare_round(ready, /*deadline_round=*/false, now_s, rng, plan);
  }
  if (!d.enabled) return std::nullopt;

  // Dead APs no longer gate the round: fire as soon as every live AP is
  // full (quorum permitting). Dead APs with a usable partial buffer still
  // contribute their packets.
  if (live >= 2 && live_ready == live && ready.size() >= kMinQuorum) {
    armed_since_s_.reset();
    return prepare_round(usable, /*deadline_round=*/true, now_s, rng, plan);
  }

  // Deadline path: a quorum of full groups is waiting on stragglers.
  if (ready.size() >= kMinQuorum) {
    if (!armed_since_s_) armed_since_s_ = now_s;
    if (now_s - *armed_since_s_ >= d.round_deadline_s) {
      armed_since_s_.reset();
      return prepare_round(usable, /*deadline_round=*/true, now_s, rng, plan);
    }
  } else {
    armed_since_s_.reset();
  }
  return std::nullopt;
}

PendingRound StreamingLocalizer::prepare_round(
    const std::vector<std::size_t>& ap_ids, bool deadline_round, double now_s,
    Rng& rng, const RoundPlan& plan) {
  PendingRound pending;
  pending.ap_ids = ap_ids;
  pending.plan = plan;
  pending.deadline_round = deadline_round;
  pending.now_s = now_s;
  pending.captures.reserve(ap_ids.size());
  for (const std::size_t a : ap_ids) {
    auto& b = buffers_[a];
    ApCapture capture;
    capture.pose = b.pose;
    const std::size_t take = std::min(b.packets.size(), config_.group_size);
    for (std::size_t i = 0; i < take; ++i) {
      pending.latest_t =
          std::max(pending.latest_t, b.packets.front().timestamp_s);
      capture.packets.push_back(std::move(b.packets.front()));
      b.packets.pop_front();
    }
    pending.captures.push_back(std::move(capture));
  }

  // A shed round still drains its backlog (that is the point of
  // shedding); it just never reaches the estimator, so it draws no
  // randomness.
  if (plan.run) {
    pending.streams = fork_round_streams(rng, pending.captures.size());
  }
  return pending;
}

void StreamingLocalizer::execute_round(PendingRound& round) const {
  round.outcome.emplace(server_.try_localize_forked(
      round.captures, round.streams, round.plan.level));
}

std::optional<LocationFix> StreamingLocalizer::complete_round(
    PendingRound pending) {
  SPOTFI_EXPECTS(pending.outcome.has_value(),
                 "complete_round requires an executed round");
  auto& outcome = *pending.outcome;
  if (!outcome) {
    ++failed_rounds_;
    last_failure_ = RoundFailure{outcome.error().reason, pending.now_s};
    return std::nullopt;
  }

  LocationFix fix;
  fix.round = std::move(outcome).value();
  const RoundPlan& plan = pending.plan;
  fix.round.fidelity = plan.level;
  fix.raw = fix.round.location.position;
  fix.time_s = pending.latest_t;
  fix.aps_used = pending.ap_ids;
  fix.degraded = pending.deadline_round || fix.round.degraded ||
                 plan.level != ApStage::kPrimary;
  fix.reasons = fix.round.notes;
  if (plan.level != ApStage::kPrimary) {
    // The rung is a floor, so the APs may have run a cheaper stage than
    // it names; ap_stages says which.
    std::string reason = std::string("overload: round planned at ") +
                         to_string(plan.level) + " fidelity";
    if (plan.reason[0] != '\0') {
      reason += std::string(" (") + plan.reason + ")";
    }
    fix.reasons.insert(fix.reasons.begin(), std::move(reason));
  }
  if (pending.deadline_round) {
    fix.reasons.insert(
        fix.reasons.begin(),
        "deadline round: " + std::to_string(pending.ap_ids.size()) + " of " +
            std::to_string(buffers_.size()) + " APs contributed");
  }
  // The tracker requires monotone time; reordered/stale feeds can fire a
  // round whose newest packet is older than the previous fix.
  if (pending.latest_t > last_fix_time_s_) {
    fix.tracked = tracker_.update(fix.raw, pending.latest_t);
  } else {
    fix.tracked = fix.raw;
    fix.reasons.push_back("tracker skipped: non-monotone fix time");
  }
  last_fix_time_s_ = std::max(last_fix_time_s_, pending.latest_t);
  ++fix_count_;
  return fix;
}

StreamingState StreamingLocalizer::export_state() const {
  StreamingState out;
  out.aps.reserve(buffers_.size());
  for (const ApBuffer& buffer : buffers_) {
    ApBufferState ap;
    ap.health = buffer.state;
    ap.packets.assign(buffer.packets.begin(), buffer.packets.end());
    out.aps.push_back(std::move(ap));
  }
  out.tracker = tracker_.export_state();
  out.ingest = ingest_report_;
  out.rejected = rejected_;
  out.failed_rounds = failed_rounds_;
  out.fix_count = fix_count_;
  out.now_s = now_s_;
  out.has_stream_start = stream_start_s_.has_value();
  out.stream_start_s = stream_start_s_.value_or(0.0);
  out.has_armed_since = armed_since_s_.has_value();
  out.armed_since_s = armed_since_s_.value_or(0.0);
  out.last_fix_time_s = last_fix_time_s_;
  return out;
}

void StreamingLocalizer::restore_state(StreamingState state) {
  SPOTFI_EXPECTS(state.aps.size() == buffers_.size(),
                 "restore_state: AP count does not match this deployment");
  for (std::size_t a = 0; a < buffers_.size(); ++a) {
    ApBuffer& buffer = buffers_[a];
    buffer.state = state.aps[a].health;
    buffer.packets.assign(
        std::make_move_iterator(state.aps[a].packets.begin()),
        std::make_move_iterator(state.aps[a].packets.end()));
  }
  tracker_.restore_state(state.tracker);
  ingest_report_ = state.ingest;
  rejected_ = state.rejected;
  failed_rounds_ = state.failed_rounds;
  fix_count_ = state.fix_count;
  now_s_ = state.now_s;
  stream_start_s_ = state.has_stream_start
                        ? std::optional<double>(state.stream_start_s)
                        : std::nullopt;
  armed_since_s_ = state.has_armed_since
                       ? std::optional<double>(state.armed_since_s)
                       : std::nullopt;
  last_fix_time_s_ = state.last_fix_time_s;
  last_failure_.reset();
}

}  // namespace spotfi
