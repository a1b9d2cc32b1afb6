#include "shedding/balance_sic_shedder.h"

#include <algorithm>
#include <limits>

namespace themis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Two projected SIC values within this tolerance count as "equal" for the
// q''_SIC != q'_SIC condition of Alg. 1 line 14.
constexpr double kSicEps = 1e-12;

// Stable insertion sort by descending batch SIC (FIFO order breaks ties).
// Candidate lists are small; this avoids std::stable_sort's per-call buffer
// allocation and — stability being a unique ordering — produces exactly the
// permutation std::stable_sort would.
void SortBySicDesc(std::vector<size_t>* idxs, const std::deque<Batch>& ib) {
  for (size_t i = 1; i < idxs->size(); ++i) {
    size_t idx = (*idxs)[i];
    double sic = ib[idx].header.sic;
    size_t j = i;
    while (j > 0 && ib[(*idxs)[j - 1]].header.sic < sic) {
      (*idxs)[j] = (*idxs)[j - 1];
      --j;
    }
    (*idxs)[j] = idx;
  }
}

}  // namespace

// Performance note: this runs every shedding interval over the whole input
// buffer and dominated profiles as a std::map-based implementation. The flat
// scratch vectors keep the original ascending-query iteration order (and
// thus the exact RNG call sequence and shedding decisions) while staying
// cache-friendly and allocation-free in steady state.
std::vector<size_t> BalanceSicShedder::SelectBatchesToKeep(
    const std::deque<Batch>& ib, const ShedContext& ctx) {
  if (ib.empty() || ctx.capacity_tuples == 0) return {};

  // Group buffer batches per query and compute the projection baseline.
  // `states_` ends up sorted by query id, matching a map's iteration order.
  size_t states_used = 0;
  ++generation_;
  for (size_t i = 0; i < ib.size(); ++i) {
    QueryId q = ib[i].header.query_id;
    if (static_cast<size_t>(q) >= state_index_.size()) {
      state_index_.resize(q + 1);
    }
    IndexSlot& idx = state_index_[q];
    if (idx.generation != generation_) {
      idx.generation = generation_;
      idx.slot = static_cast<uint32_t>(states_used);
      if (states_used == states_.size()) states_.emplace_back();
      QueryState& st = states_[states_used];
      st.query = q;
      st.projected_sic = 0.0;
      st.batches.clear();
      st.next = 0;
      ++states_used;
    }
    states_[idx.slot].batches.push_back(i);
  }
  std::sort(states_.begin(), states_.begin() + states_used,
            [](const QueryState& a, const QueryState& b) {
              return a.query < b.query;
            });
  auto states_begin = states_.begin();
  auto states_end = states_.begin() + states_used;

  for (auto st_it = states_begin; st_it != states_end; ++st_it) {
    QueryState& st = *st_it;
    const QueryId q = st.query;
    double disseminated = 0.0;
    if (ctx.query_sic != nullptr &&
        static_cast<size_t>(q) < ctx.query_sic->size()) {
      disseminated = (*ctx.query_sic)[q];
    }
    if (options_.project_local_shedding) {
      double in_buffer = 0.0;
      for (size_t i : st.batches) in_buffer += ib[i].header.sic;
      st.projected_sic = std::max(0.0, disseminated - in_buffer);
      // Recently accepted mass is in flight through the operators' window
      // cascade: it appears in neither the disseminated result SIC nor the
      // buffer. Using the local accept level as a floor removes the feedback
      // lag that would otherwise cause over-correction oscillations.
      if (ctx.local_accepted_sic != nullptr &&
          static_cast<size_t>(q) < ctx.local_accepted_sic->size()) {
        st.projected_sic =
            std::max(st.projected_sic, (*ctx.local_accepted_sic)[q]);
      }
    } else {
      st.projected_sic = disseminated;
    }
    if (options_.prefer_high_sic) {
      // max(x_SIC): highest-SIC batches first; FIFO order breaks SIC ties.
      SortBySicDesc(&st.batches, ib);
    }

    // Bucket by operator window, order buckets by SIC mass (max(x_SIC) at
    // window granularity), and source-interleave inside each bucket. The
    // flattened list makes the acceptance loop complete one window before
    // starting the next — see BalanceSicOptions::window_group. Buckets are
    // few (the buffer spans a couple of windows), so linear find beats a
    // map.
    buckets_used_ = 0;
    auto bucket_for = [this](int64_t window) -> std::vector<size_t>& {
      for (size_t b = 0; b < buckets_used_; ++b) {
        if (buckets_[b].first == window) return buckets_[b].second;
      }
      if (buckets_used_ == buckets_.size()) buckets_.emplace_back();
      buckets_[buckets_used_].first = window;
      buckets_[buckets_used_].second.clear();
      return buckets_[buckets_used_++].second;
    };
    if (options_.window_group > 0) {
      for (size_t idx : st.batches) {
        bucket_for(ib[idx].header.created / options_.window_group)
            .push_back(idx);
      }
    } else {
      bucket_for(0) = st.batches;
    }

    bucket_order_.clear();  // (-sic, window)
    for (size_t b = 0; b < buckets_used_; ++b) {
      double mass = 0.0;
      for (size_t i : buckets_[b].second) mass += ib[i].header.sic;
      bucket_order_.emplace_back(-mass, buckets_[b].first);
    }
    // Windows are distinct, so the (-mass, window) order is total and
    // independent of bucket build order.
    std::sort(bucket_order_.begin(), bucket_order_.end());

    flattened_.clear();
    flattened_.reserve(st.batches.size());
    for (const auto& [neg_mass, window] : bucket_order_) {
      std::vector<size_t>& idxs = bucket_for(window);
      if (options_.interleave_sources) {
        // Round-robin across sources, preserving per-source order. The
        // starting source rotates randomly: a starved query often gets just
        // one batch per invocation, and a fixed start would feed the same
        // source forever, permanently starving the other input port of a
        // join/covariance operator.
        per_source_used_ = 0;
        for (size_t idx : idxs) {
          SourceId src = ib[idx].header.source;
          std::vector<size_t>* lane = nullptr;
          for (size_t s = 0; s < per_source_used_; ++s) {
            if (per_source_[s].first == src) {
              lane = &per_source_[s].second;
              break;
            }
          }
          if (lane == nullptr) {
            if (per_source_used_ == per_source_.size()) {
              per_source_.emplace_back();
            }
            per_source_[per_source_used_].first = src;
            per_source_[per_source_used_].second.clear();
            lane = &per_source_[per_source_used_++].second;
          }
          lane->push_back(idx);
        }
        // Ascending source order, as a std::map would iterate.
        std::sort(per_source_.begin(), per_source_.begin() + per_source_used_,
                  [](const auto& a, const auto& b) {
                    return a.first < b.first;
                  });
        size_t lanes = per_source_used_;
        size_t start = lanes > 1
                           ? static_cast<size_t>(rng_.UniformInt(
                                 0, static_cast<int64_t>(lanes) - 1))
                           : 0;
        size_t emitted = 0;
        for (size_t round = 0; emitted < idxs.size(); ++round) {
          for (size_t l = 0; l < lanes; ++l) {
            const std::vector<size_t>& v =
                per_source_[(start + l) % lanes].second;
            if (round < v.size()) {
              flattened_.push_back(v[round]);
              ++emitted;
            }
          }
        }
      } else {
        flattened_.insert(flattened_.end(), idxs.begin(), idxs.end());
      }
    }
    st.batches.assign(flattened_.begin(), flattened_.end());
  }

  // At most every buffered batch is kept: one allocation per call.
  std::vector<size_t> keep;
  keep.reserve(ib.size());
  size_t remaining = ctx.capacity_tuples;

  // Sorted copy of every state's projected SIC, maintained as projections
  // rise. The q'' level query below becomes an upper_bound; the linear
  // argmin scan stays (its tie-breaking consumes RNG draws per candidate,
  // so it cannot be skipped without changing decisions).
  sorted_sic_.clear();
  for (auto st_it = states_begin; st_it != states_end; ++st_it) {
    sorted_sic_.push_back(st_it->projected_sic);
  }
  std::sort(sorted_sic_.begin(), sorted_sic_.end());

  // selectTuplesToKeep() main loop. Each iteration raises the minimum query
  // toward the second-lowest distinct SIC level.
  while (remaining > 0) {
    // q' := argmin over queries that still have batches to offer.
    QueryState* min_st = nullptr;
    double min_sic = kInf;
    int ties = 0;
    for (auto st_it = states_begin; st_it != states_end; ++st_it) {
      QueryState& cand = *st_it;
      if (cand.Exhausted()) continue;
      if (cand.projected_sic < min_sic - kSicEps) {
        min_sic = cand.projected_sic;
        min_st = &cand;
        ties = 1;
      } else if (cand.projected_sic <= min_sic + kSicEps) {
        // Reservoir-sample among ties so the random pick is uniform.
        ++ties;
        if (rng_.UniformInt(1, ties) == 1) min_st = &cand;
      }
    }
    if (min_st == nullptr) break;  // every query exhausted

    // q'' := next distinct SIC level among ALL queries (exhausted queries
    // still define levels other nodes may be filling toward). min_st's own
    // level is <= min_sic + eps, so the bound can never return it.
    auto above = std::upper_bound(sorted_sic_.begin(), sorted_sic_.end(),
                                  min_sic + kSicEps);
    double target = above != sorted_sic_.end() ? *above : kInf;

    // Accept batches from q' until its projection reaches the target level,
    // capacity runs out, or it has nothing left. With target == inf (all
    // queries at the same level) accept a single batch, then re-enter the
    // loop so acceptance rotates randomly across queries (Fig. 3, iter. 5).
    QueryState& st = *min_st;
    const double level_before = st.projected_sic;
    bool accepted_any = false;
    while (!st.Exhausted() && st.projected_sic < target - kSicEps &&
           remaining > 0) {
      size_t idx = st.batches[st.next];
      size_t n = ib[idx].size();
      if (n > remaining) {
        // Alg. 1 line 17: never exceed capacity. Try a smaller batch of the
        // same query before giving up on it.
        bool found = false;
        for (size_t j = st.next + 1; j < st.batches.size(); ++j) {
          if (ib[st.batches[j]].size() <= remaining) {
            std::swap(st.batches[st.next], st.batches[j]);
            found = true;
            break;
          }
        }
        if (!found) {
          st.next = st.batches.size();  // nothing fits; exhaust this query
          break;
        }
        continue;
      }
      keep.push_back(idx);
      st.projected_sic += ib[idx].header.sic;  // local updateSIC(Q)
      remaining -= n;
      ++st.next;
      accepted_any = true;
      if (target == kInf) break;  // tie case: one batch, then re-select
    }
    if (st.projected_sic != level_before) {
      // Re-sort st's level: drop one instance of the old value, insert the
      // new one at its ordered position.
      auto old_it = std::lower_bound(sorted_sic_.begin(), sorted_sic_.end(),
                                     level_before);
      sorted_sic_.erase(old_it);
      auto new_it = std::lower_bound(sorted_sic_.begin(), sorted_sic_.end(),
                                     st.projected_sic);
      sorted_sic_.insert(new_it, st.projected_sic);
    }
    if (!accepted_any && st.Exhausted()) continue;  // another query may fit
    if (!accepted_any) break;  // capacity cannot fit anything further
  }

  std::sort(keep.begin(), keep.end());
  return keep;
}

}  // namespace themis
