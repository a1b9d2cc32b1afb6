// Recovery observability: turns the per-query SIC snapshot into a
// time-series discipline. A RecoveryTracker samples every deployed query's
// result SIC at a fixed cadence (plus the federation-wide Jain index over
// the same instants), keeping only the newest reading of each, and, for every
// control-plane disturbance it is told about — a crash wave, a restore, a
// batch of applied link edits — measures how the fault cut into each
// query's SIC: dip depth below the pre-fault baseline, time to recover back
// to p% of that baseline (the fault-tolerance literature's MTTR view), and
// the area under the dip (SIC-seconds of service lost). Dips that never
// close stay open in the report ("unrecovered"), and overlapping
// disturbances are tracked independently, each against its own baseline.
//
// The tracker is pure bookkeeping over values it is fed: it knows nothing
// about engines, nodes or coordinators, so its output is bit-identical
// whenever its inputs are — which is exactly what the federation layer
// guarantees between run segments at any shard count.
#ifndef THEMIS_METRICS_RECOVERY_TRACKER_H_
#define THEMIS_METRICS_RECOVERY_TRACKER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time_types.h"
#include "runtime/ids.h"

namespace themis {

/// Knobs of the recovery tracker; defaults match the paper's control-plane
/// cadence (the 250 ms shedding/dissemination interval) and the common
/// "recovered to 90% of pre-fault service" MTTR threshold.
struct RecoveryTrackerOptions {
  /// Master switch: a disabled tracker records nothing and adds no RunFor
  /// segmentation (Fsps only samples when this is set), keeping every
  /// pre-existing figure byte-identical.
  bool enabled = false;
  /// SIC sampling cadence (also the resolution of every MTTR reading).
  SimDuration sample_interval = Millis(250);
  /// A query counts as recovered from a disturbance once its SIC climbs
  /// back to this fraction of its pre-fault baseline.
  double recover_fraction = 0.9;
  /// How long after a disturbance a query's SIC may take to fall below the
  /// recovery threshold before the query is settled as unaffected. SIC is
  /// an STW-smoothed signal: a crash at t dents it over the following
  /// seconds, not at the next sample — so the dip window must stay armed
  /// while the dent develops. Defaults to the paper's 10 s STW.
  SimDuration dip_onset_window = Seconds(10);
};

/// What kind of control-plane event opened a disturbance window.
enum class DisturbanceKind {
  kCrashWave,   ///< one or more node crashes at the same instant
  kRestore,     ///< a node rejoin (rejoin churn also perturbs placement)
  kLinkChange,  ///< a batch of link-latency edits applied at a run boundary
  kRebalance,   ///< an elastic shard re-balance migrated entities
};

std::string DisturbanceKindName(DisturbanceKind kind);

/// Recovery record of one series — a query's SIC, or the federation's Jain
/// index — through one disturbance. Lifecycle: armed (waiting for the
/// STW-smoothed signal to dent) -> dipped (below the threshold) ->
/// recovered (back at/above it); series that never cross below the
/// threshold within the onset window settle as unaffected, and dips still
/// below threshold at end of run stay open ("unrecovered").
struct QueryDip {
  QueryId query = kInvalidId;  ///< kInvalidId for the Jain dip
  double baseline = 0.0;   ///< pre-fault value (last sample at/before fault)
  double threshold = 0.0;  ///< recover_fraction * baseline
  double dip_depth = 0.0;  ///< max(baseline - sic) observed before recovery
  double area_under_dip = 0.0;  ///< integral of (baseline - sic)+ dt, seconds
  bool dipped = false;      ///< SIC fell below the threshold at least once
  bool recovered = false;   ///< SIC came back to >= threshold after dipping
  bool settled = false;     ///< no longer tracked (recovered or unaffected)
  SimTime recover_time = -1;  ///< absolute time of recovery (-1 while open)
  /// Time from the disturbance to recovery; -1 while unrecovered.
  SimDuration time_to_recover = -1;
};

/// One disturbance window: the dip bookkeeping of every query that was
/// deployed when the fault landed.
struct Disturbance {
  SimTime time = 0;
  DisturbanceKind kind = DisturbanceKind::kCrashWave;
  int events = 1;  ///< coalesced control-plane calls at this (time, kind)
  std::vector<QueryDip> dips;  ///< query-id order
  bool open = true;  ///< at least one dip (or the Jain dip) not settled
  /// Fairness dip: the federation-wide Jain index through the same
  /// lifecycle, against 95% of the pre-fault Jain value.
  QueryDip jain;
};

/// Aggregate recovery statistics over a set of disturbances.
struct RecoverySummary {
  int disturbances = 0;
  int affected = 0;     ///< (disturbance, query) pairs that dipped
  int unrecovered = 0;  ///< affected pairs still open at end of run
  double max_dip_depth = 0.0;
  double mean_dip_depth = 0.0;   ///< over affected pairs
  double mean_area_under_dip = 0.0;  ///< over affected pairs, SIC-seconds
  /// MTTR: mean/max time-to-recover over affected pairs that recovered, ms.
  double mean_ttr_ms = 0.0;
  double max_ttr_ms = 0.0;
  /// Censored MTTR over *all* affected pairs: an unrecovered pair counts
  /// its elapsed open time (end of run - fault time), so a policy that
  /// never recovers cannot look fast by dropping pairs from the mean. This
  /// is the number the CI fairness gate compares across policies.
  double mean_censored_ttr_ms = 0.0;
  /// Federation-wide Jain-over-time extremes (whole run, all samples).
  double min_jain = 1.0;
  double final_jain = 1.0;
  /// Fairness recovery: disturbances whose Jain index dipped below 95% of
  /// its pre-fault value, how many never regained it,
  /// and the censored mean time for Jain to regain it (unrecovered
  /// disturbances count their elapsed open time, as mean_censored_ttr_ms
  /// does for queries).
  int jain_dips = 0;
  int jain_unrecovered = 0;
  double mean_jain_ttr_ms = 0.0;
};

/// \brief Samples per-query SIC over time and measures recovery from
/// control-plane disturbances.
class RecoveryTracker {
 public:
  explicit RecoveryTracker(RecoveryTrackerOptions options = {});

  const RecoveryTrackerOptions& options() const { return options_; }

  /// Feeds one sampling instant. `sics` holds every deployed query's
  /// current result SIC in ascending query-id order. Time must be monotone
  /// non-decreasing; a repeated call at the same instant is a no-op (the
  /// first reading of an instant wins), so cadence samples and
  /// disturbance-time samples compose without double counting. Returns
  /// whether the instant was accepted. Dip statistics accumulate online,
  /// so only the newest reading of each series is kept.
  bool Sample(SimTime now,
              const std::vector<std::pair<QueryId, double>>& sics);

  /// Opens a disturbance window at `now`, baselined at each query's latest
  /// sampled SIC (callers sample first, then mark). A repeated call at the
  /// same (time, kind) coalesces — a wave of crashes at one instant is
  /// one disturbance with `events` incremented.
  void MarkDisturbance(SimTime now, DisturbanceKind kind);

  /// Time of the latest accepted sample (-1 before the first).
  SimTime last_sample_time() const { return last_sample_time_; }
  uint64_t samples() const { return samples_; }

  /// Federation-wide Jain index at the latest accepted sample (1 before
  /// the first), and its minimum over every sample.
  double latest_jain() const { return latest_jain_; }
  double min_jain() const { return min_jain_; }

  const std::vector<Disturbance>& disturbances() const {
    return disturbances_;
  }

  /// Aggregates over the disturbances of `kind`.
  RecoverySummary Summarize(DisturbanceKind kind) const;
  /// Aggregates over every disturbance regardless of kind.
  RecoverySummary SummarizeAll() const;

  /// Deterministic text dump of the full tracker state (disturbances, dips,
  /// Jain extremes): two runs fed identical inputs produce identical
  /// strings, which is what the determinism tests and the CI byte-diff
  /// compare.
  std::string DebugString() const;

 private:
  RecoverySummary SummarizeMatching(bool any_kind, DisturbanceKind kind) const;
  /// Time to recover of a dipped `dip` opened at `since`, in ms; an
  /// unrecovered dip counts its open time at the last sample, floored at
  /// the onset window (see SummarizeMatching).
  double CensoredTtrMs(const QueryDip& dip, SimTime since) const;
  void UpdateDisturbance(
      SimTime now, SimTime prev_sample_time, double jain, Disturbance* d,
      const std::vector<std::pair<QueryId, double>>& sics) const;

  RecoveryTrackerOptions options_;
  SimTime last_sample_time_ = -1;
  uint64_t samples_ = 0;
  /// Latest sampled SIC of every query ever sampled (dip baselines).
  std::map<QueryId, double> latest_sic_;
  double latest_jain_ = 1.0;
  double min_jain_ = 1.0;
  std::vector<Disturbance> disturbances_;
};

}  // namespace themis

#endif  // THEMIS_METRICS_RECOVERY_TRACKER_H_
