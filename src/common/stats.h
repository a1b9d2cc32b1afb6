// Small statistics helpers shared by the cost model, the metrics module and
// the benchmark reporters.
#ifndef THEMIS_COMMON_STATS_H_
#define THEMIS_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace themis {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& xs);

/// Population standard deviation; 0 for inputs of size < 2.
double StdDev(const std::vector<double>& xs);

/// Sample covariance of two equally sized series; 0 when sizes differ or < 2.
double Covariance(const std::vector<double>& xs, const std::vector<double>& ys);

/// \brief Exponentially weighted moving average.
///
/// Used by the online cost model (§6 of the paper) to smooth per-tuple
/// processing-time estimates.
class Ewma {
 public:
  /// \param alpha weight of the newest observation in (0, 1].
  explicit Ewma(double alpha = 0.2) : alpha_(alpha) {}

  /// Folds in an observation and returns the updated average.
  double Update(double x);

  double value() const { return value_; }
  bool has_value() const { return initialized_; }
  void Reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// \brief Sliding-window mean over the most recent `capacity` observations.
class MovingAverage {
 public:
  explicit MovingAverage(size_t capacity = 16) : capacity_(capacity) {}

  double Update(double x);
  double value() const;
  size_t size() const { return window_.size(); }
  void Reset();

 private:
  size_t capacity_;
  std::deque<double> window_;
  double sum_ = 0.0;
};

}  // namespace themis

#endif  // THEMIS_COMMON_STATS_H_
