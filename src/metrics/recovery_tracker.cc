#include "metrics/recovery_tracker.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.h"
#include "metrics/jain.h"

namespace themis {

namespace {

// The federation counts as fairness-recovered from a disturbance once the
// Jain index regains this fraction of its pre-fault value.
constexpr double kJainRecoverFraction = 0.95;

// Advances `dip` by one sample `value` taken at `now`, `dt` seconds after
// the previous step, for a disturbance at `since`. Returns whether the dip
// is still tracked (not settled).
bool StepDip(QueryDip* dip, double value, SimTime now, SimTime since,
             double dt, SimDuration onset_window) {
  if (value < dip->baseline) {
    dip->dip_depth = std::max(dip->dip_depth, dip->baseline - value);
    dip->area_under_dip += (dip->baseline - value) * dt;
  }
  if (!dip->dipped) {
    // Armed: waiting for the STW-smoothed dent to cross the threshold.
    if (value < dip->threshold) {
      dip->dipped = true;
    } else if (now - since > onset_window) {
      dip->settled = true;  // the fault never touched this series
    }
  } else if (value >= dip->threshold) {
    dip->recovered = true;
    dip->settled = true;
    dip->recover_time = now;
    dip->time_to_recover = now - since;
  }
  return !dip->settled;
}

}  // namespace

std::string DisturbanceKindName(DisturbanceKind kind) {
  switch (kind) {
    case DisturbanceKind::kCrashWave:
      return "crash-wave";
    case DisturbanceKind::kRestore:
      return "restore";
    case DisturbanceKind::kLinkChange:
      return "link-change";
    case DisturbanceKind::kRebalance:
      return "rebalance";
  }
  return "?";
}

RecoveryTracker::RecoveryTracker(RecoveryTrackerOptions options)
    : options_(options) {
  THEMIS_CHECK(options_.sample_interval > 0);
  THEMIS_CHECK(options_.recover_fraction > 0.0 &&
               options_.recover_fraction <= 1.0);
}

bool RecoveryTracker::Sample(
    SimTime now, const std::vector<std::pair<QueryId, double>>& sics) {
  THEMIS_CHECK(now >= last_sample_time_);      // monotone sample clock
  if (now == last_sample_time_) return false;  // first reading wins
  SimTime prev = last_sample_time_;
  last_sample_time_ = now;
  samples_ += 1;

  std::vector<double> values;
  values.reserve(sics.size());
  for (const auto& [q, sic] : sics) {
    latest_sic_[q] = sic;
    values.push_back(sic);
  }
  double jain = JainIndex(values);
  latest_jain_ = jain;
  min_jain_ = std::min(min_jain_, jain);

  for (Disturbance& d : disturbances_) {
    if (d.open) UpdateDisturbance(now, prev, jain, &d, sics);
  }
  return true;
}

void RecoveryTracker::UpdateDisturbance(
    SimTime now, SimTime prev_sample_time, double jain, Disturbance* d,
    const std::vector<std::pair<QueryId, double>>& sics) const {
  // The integration step starts at the later of the disturbance instant and
  // the previous sample (overlapping dips must not double count the time
  // before the fault landed).
  SimTime step_start = std::max(d->time, prev_sample_time);
  double dt = ToSeconds(now - step_start);

  bool any_open = false;
  auto sit = sics.begin();
  for (QueryDip& dip : d->dips) {
    if (dip.settled) continue;
    // Both sequences are in ascending query-id order: advance the sample
    // cursor to this dip's query.
    while (sit != sics.end() && sit->first < dip.query) ++sit;
    if (sit == sics.end() || sit->first != dip.query) {
      // The query departed (force-undeploy). An armed dip settles as
      // unaffected; a developed dip stays open forever ("unrecovered").
      if (!dip.dipped) dip.settled = true;
      if (!dip.settled) any_open = true;
      continue;
    }
    if (StepDip(&dip, sit->second, now, d->time, dt,
                options_.dip_onset_window)) {
      any_open = true;
    }
  }
  // The Jain fairness dip: open until the index regains
  // kJainRecoverFraction of its pre-fault value.
  if (!d->jain.settled &&
      StepDip(&d->jain, jain, now, d->time, dt, options_.dip_onset_window)) {
    any_open = true;
  }
  d->open = any_open;
}

void RecoveryTracker::MarkDisturbance(SimTime now, DisturbanceKind kind) {
  THEMIS_CHECK(now >= last_sample_time_);
  for (Disturbance& d : disturbances_) {
    THEMIS_CHECK(d.time <= now);  // monotone disturbance clock
    if (d.time == now && d.kind == kind) {
      d.events += 1;  // coalesce: one wave, many control-plane calls
      return;
    }
  }
  Disturbance d;
  d.time = now;
  d.kind = kind;
  if (samples_ > 0) {
    d.jain.baseline = latest_jain_;
    d.jain.threshold = kJainRecoverFraction * d.jain.baseline;
  } else {
    // A mark before the first sample has no pre-fault fairness level.
    d.jain.settled = true;
  }
  // Baseline every query at its latest sampled SIC. Queries never sampled
  // yet (a mark before the first cadence tick) get no dip record: there is
  // no pre-fault level to measure a dip against.
  for (const auto& [q, sic] : latest_sic_) {
    QueryDip dip;
    dip.query = q;
    dip.baseline = sic;
    dip.threshold = options_.recover_fraction * dip.baseline;
    d.dips.push_back(dip);
  }
  disturbances_.push_back(std::move(d));
}

RecoverySummary RecoveryTracker::Summarize(DisturbanceKind kind) const {
  return SummarizeMatching(false, kind);
}

RecoverySummary RecoveryTracker::SummarizeAll() const {
  return SummarizeMatching(true, DisturbanceKind::kCrashWave);
}

double RecoveryTracker::CensoredTtrMs(const QueryDip& dip,
                                     SimTime since) const {
  if (dip.recovered) {
    return static_cast<double>(dip.time_to_recover) / kMillisecond;
  }
  // Censoring floor. An unrecovered dip contributes the time it has been
  // open at the last sample — but a disturbance armed in the final
  // dip_onset_window of a run has had almost no elapsed open time, so its
  // near-zero contribution would *deflate* the censored mean below what the
  // recovered dips alone show. Such a dip is known to be open for at least
  // the onset window (the dent is still developing when the run ends), so
  // its contribution is floored there instead of excluding it outright.
  double open_ms =
      static_cast<double>(last_sample_time_ - since) / kMillisecond;
  return std::max(open_ms, static_cast<double>(options_.dip_onset_window) /
                               kMillisecond);
}

RecoverySummary RecoveryTracker::SummarizeMatching(bool any_kind,
                                                   DisturbanceKind kind) const {
  RecoverySummary s;
  s.min_jain = min_jain_;
  s.final_jain = latest_jain_;
  double sum_dip = 0.0, sum_area = 0.0, sum_ttr_ms = 0.0;
  double sum_censored_ttr_ms = 0.0;
  double sum_jain_ttr_ms = 0.0;
  int recovered = 0;
  for (const Disturbance& d : disturbances_) {
    if (!any_kind && d.kind != kind) continue;
    s.disturbances += 1;
    if (d.jain.dipped) {
      s.jain_dips += 1;
      if (!d.jain.recovered) s.jain_unrecovered += 1;
      sum_jain_ttr_ms += CensoredTtrMs(d.jain, d.time);
    }
    for (const QueryDip& dip : d.dips) {
      if (!dip.dipped) continue;
      s.affected += 1;
      s.max_dip_depth = std::max(s.max_dip_depth, dip.dip_depth);
      sum_dip += dip.dip_depth;
      sum_area += dip.area_under_dip;
      double ttr_ms = CensoredTtrMs(dip, d.time);
      sum_censored_ttr_ms += ttr_ms;
      if (dip.recovered) {
        sum_ttr_ms += ttr_ms;
        s.max_ttr_ms = std::max(s.max_ttr_ms, ttr_ms);
        recovered += 1;
      } else {
        s.unrecovered += 1;
      }
    }
  }
  if (s.affected > 0) {
    s.mean_dip_depth = sum_dip / s.affected;
    s.mean_area_under_dip = sum_area / s.affected;
    s.mean_censored_ttr_ms = sum_censored_ttr_ms / s.affected;
  }
  if (recovered > 0) s.mean_ttr_ms = sum_ttr_ms / recovered;
  if (s.jain_dips > 0) s.mean_jain_ttr_ms = sum_jain_ttr_ms / s.jain_dips;
  return s;
}

std::string RecoveryTracker::DebugString() const {
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "recovery samples=%llu last_sample_us=%lld min_jain=%.9f "
                "final_jain=%.9f\n",
                static_cast<unsigned long long>(samples_),
                static_cast<long long>(last_sample_time_), min_jain_,
                latest_jain_);
  out << buf;
  for (const Disturbance& d : disturbances_) {
    std::snprintf(buf, sizeof(buf),
                  "disturbance t_us=%lld kind=%s events=%d open=%d\n",
                  static_cast<long long>(d.time),
                  DisturbanceKindName(d.kind).c_str(), d.events,
                  d.open ? 1 : 0);
    out << buf;
    for (const QueryDip& dip : d.dips) {
      if (!dip.dipped && dip.dip_depth == 0.0) continue;  // untouched query
      std::snprintf(
          buf, sizeof(buf),
          "  q=%d baseline=%.9f dip=%.9f area=%.9f ttr_ms=%lld dipped=%d "
          "recovered=%d\n",
          dip.query, dip.baseline, dip.dip_depth, dip.area_under_dip,
          static_cast<long long>(
              dip.time_to_recover < 0 ? -1 : dip.time_to_recover /
                                                 kMillisecond),
          dip.dipped ? 1 : 0, dip.recovered ? 1 : 0);
      out << buf;
    }
  }
  return out.str();
}

}  // namespace themis
