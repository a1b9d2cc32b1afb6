#include "common/stats.h"

#include <cmath>

namespace themis {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double Covariance(const std::vector<double>& xs,
                  const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  double mx = Mean(xs), my = Mean(ys);
  double acc = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) acc += (xs[i] - mx) * (ys[i] - my);
  return acc / static_cast<double>(xs.size() - 1);
}

double Ewma::Update(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
  return value_;
}

void Ewma::Reset() {
  value_ = 0.0;
  initialized_ = false;
}

double MovingAverage::Update(double x) {
  window_.push_back(x);
  sum_ += x;
  if (window_.size() > capacity_) {
    sum_ -= window_.front();
    window_.pop_front();
  }
  return value();
}

double MovingAverage::value() const {
  if (window_.empty()) return 0.0;
  return sum_ / static_cast<double>(window_.size());
}

void MovingAverage::Reset() {
  window_.clear();
  sum_ = 0.0;
}

}  // namespace themis
