// Operator abstraction. Queries are black boxes to the shedding machinery
// (§4); operators only interact with SIC through the generic Eq. (3)
// propagation implemented once in WindowedOperator / BinaryWindowedOperator.
#ifndef THEMIS_RUNTIME_OPERATOR_H_
#define THEMIS_RUNTIME_OPERATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "runtime/ids.h"
#include "runtime/tuple.h"
#include "runtime/window.h"

namespace themis {

class BatchPool;
class CheckpointReader;
class CheckpointWriter;

/// \brief Base class of all stream operators.
///
/// Lifecycle at a node: `Ingest()` is called for every delivered batch of
/// tuples; `Advance(now)` is called periodically (and after ingestion) to
/// close windows and emit derived tuples. Emitted tuples already carry their
/// Eq. (3) SIC values; routing them to downstream operators is the caller's
/// responsibility.
class Operator {
 public:
  /// \param name operator type name (diagnostics only)
  /// \param cost_us_per_tuple simulated CPU cost of ingesting one tuple
  Operator(std::string name, double cost_us_per_tuple)
      : name_(std::move(name)), cost_us_per_tuple_(cost_us_per_tuple) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Number of input ports (1 for most operators, 2 for join/covariance).
  virtual int num_ports() const { return 1; }

  /// Feeds tuples into the operator's window state.
  virtual void Ingest(const std::vector<Tuple>& tuples, int port) = 0;

  /// Closes windows up to `watermark` and appends derived tuples to `out`.
  virtual void Advance(SimTime watermark, std::vector<Tuple>* out) = 0;

  // --- checkpoint seam (runtime/checkpoint.h) -------------------------------
  // Every stateful subclass overrides all three so that
  // RestoreFrom(Checkpoint(x)) reproduces x's mutable state bit for bit and
  // ResetState(pool) matches a freshly constructed operator. The base class has
  // no mutable state, so the defaults write/read/reset nothing.

  /// Serializes all mutable state (windows, accumulators, cross-pane
  /// scalars) into `w`.
  virtual void Checkpoint(CheckpointWriter* w) const { (void)w; }
  /// Replaces all mutable state with the image in `r`. The operator may be
  /// in any state beforehand — implementations fully reset first.
  virtual void RestoreFrom(CheckpointReader* r) {
    (void)r;
    clear_checkpoint_dirt();
  }
  /// Drops all mutable state, as a fresh instance would start. A null
  /// `pool` keeps recyclable tuple buffers as spares; a pool receives them
  /// all (query retirement; see Fsps::Undeploy).
  virtual void ResetState(BatchPool* pool) {
    (void)pool;
    clear_checkpoint_dirt();
  }

  /// Ingested SIC mass since the last Checkpoint/RestoreFrom/ResetState —
  /// the divergence proxy the approximate mode thresholds on.
  double checkpoint_dirt() const { return ckpt_dirt_; }
  void clear_checkpoint_dirt() { ckpt_dirt_ = 0.0; }

  const std::string& name() const { return name_; }
  double cost_us_per_tuple() const { return cost_us_per_tuple_; }
  void set_cost_us_per_tuple(double c) { cost_us_per_tuple_ = c; }

  OperatorId id() const { return id_; }
  void set_id(OperatorId id) { id_ = id; }

 protected:
  /// Accumulates checkpoint dirt; ingest paths call this with the SIC mass
  /// of what they consumed.
  void AddDirt(double sic) { ckpt_dirt_ += sic; }

 private:
  std::string name_;
  double cost_us_per_tuple_;
  double ckpt_dirt_ = 0.0;
  OperatorId id_ = kInvalidId;
};

/// \brief Single-input operator that processes one window pane at a time.
///
/// Subclasses implement `ProcessPane()` producing payload-only tuples; this
/// base assigns each produced tuple the Eq. (3) SIC share
/// `pane.TotalSic() / |T_out|` and the pane-end timestamp.
class WindowedOperator : public Operator {
 public:
  WindowedOperator(std::string name, WindowSpec spec, double cost_us_per_tuple)
      : Operator(std::move(name), cost_us_per_tuple), window_(spec) {}

  void Ingest(const std::vector<Tuple>& tuples, int port) override;
  void Advance(SimTime watermark, std::vector<Tuple>* out) override;
  void Checkpoint(CheckpointWriter* w) const override;
  void RestoreFrom(CheckpointReader* r) override;
  void ResetState(BatchPool* pool) override;

 protected:
  /// Computes derived payloads for one atomic input set. Implementations must
  /// not set `sic`; timestamps default to the pane end if left at 0.
  virtual void ProcessPane(const Pane& pane, std::vector<Tuple>* out) = 0;

 private:
  WindowBuffer window_;
};

/// \brief Two-input operator (join, covariance) with per-port windows.
///
/// Panes from the two ports are matched by window end; a pane is processed
/// once the watermark passes its end, with an empty stand-in if the other
/// port produced nothing for that window. Eq. (3) applies with T_in the union
/// of both panes.
class BinaryWindowedOperator : public Operator {
 public:
  BinaryWindowedOperator(std::string name, WindowSpec spec,
                         double cost_us_per_tuple)
      : Operator(std::move(name), cost_us_per_tuple),
        left_(spec),
        right_(spec) {}

  int num_ports() const override { return 2; }
  void Ingest(const std::vector<Tuple>& tuples, int port) override;
  void Advance(SimTime watermark, std::vector<Tuple>* out) override;
  void Checkpoint(CheckpointWriter* w) const override;
  void RestoreFrom(CheckpointReader* r) override;
  void ResetState(BatchPool* pool) override;

 protected:
  virtual void ProcessPanes(const Pane& left, const Pane& right,
                            std::vector<Tuple>* out) = 0;

 private:
  WindowBuffer left_;
  WindowBuffer right_;
  std::map<SimTime, Pane> pending_left_;
  std::map<SimTime, Pane> pending_right_;
};

/// \brief Stateless pass-through used for stream merge points.
class PassThroughOperator : public Operator {
 public:
  explicit PassThroughOperator(std::string name, double cost_us_per_tuple = 0.5)
      : Operator(std::move(name), cost_us_per_tuple) {}

  void Ingest(const std::vector<Tuple>& tuples, int port) override;
  void Advance(SimTime watermark, std::vector<Tuple>* out) override;
  void Checkpoint(CheckpointWriter* w) const override;
  void RestoreFrom(CheckpointReader* r) override;
  void ResetState(BatchPool* pool) override;

 private:
  std::vector<Tuple> pending_;
};

}  // namespace themis

#endif  // THEMIS_RUNTIME_OPERATOR_H_
