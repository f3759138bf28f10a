#include "profile/measured_profile.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/stats.hpp"
#include "sim/data_backend.hpp"

namespace pooch::profile {

MeasuredProfile::MeasuredProfile(int num_nodes, int num_values)
    : fwd_(static_cast<std::size_t>(num_nodes)),
      bwd_(static_cast<std::size_t>(num_nodes)),
      d2h_(static_cast<std::size_t>(num_values)),
      h2d_(static_cast<std::size_t>(num_values)) {
  POOCH_CHECK(num_nodes >= 0 && num_values >= 0);
}

void MeasuredProfile::record_run(const exec::OpStream& stream,
                                 const exec::AsyncResult& result) {
  POOCH_CHECK_MSG(result.spans.size() == stream.ops.size(),
                  "span/op count mismatch: result does not belong to stream");
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    const exec::StreamOp& op = stream.ops[i];
    // OpSpan::start is stamped *after* the dependency waits, so
    // end - start is pure execution time, not queueing delay.
    const double dur = result.spans[i].end - result.spans[i].start;
    switch (op.type) {
      case exec::OpType::kForward:
        record_forward(op.node, dur);
        break;
      case exec::OpType::kBackward:
        record_backward(op.node, dur);
        break;
      case exec::OpType::kSwapOut:
        record_d2h(op.value, dur);
        break;
      case exec::OpType::kSwapIn:
        record_h2d(op.value, dur);
        break;
      case exec::OpType::kUpdate:
        record_update(dur);
        break;
      case exec::OpType::kRecompute:   // a second forward sample
        record_forward(op.node, dur);
        break;
      case exec::OpType::kBeginIteration:
      case exec::OpType::kFreeValue:
      case exec::OpType::kFreeGrad:
        break;  // bookkeeping, not hardware time
    }
  }
  record_iteration_seconds(result.wall_seconds);
}

namespace {

/// Throws unless `seconds` is a finite, non-negative duration; the
/// message names the op (`what`, followed by `id` when it is >= 0).
void check_seconds(double seconds, const char* what, int id = -1) {
  if (std::isfinite(seconds) && seconds >= 0.0) return;
  std::ostringstream os;
  os << "MeasuredProfile: bad duration " << seconds << " s for " << what;
  if (id >= 0) os << " " << id;
  throw Error(os.str());
}

}  // namespace

void MeasuredProfile::record_forward(graph::NodeId node, double seconds) {
  check_seconds(seconds, "forward of node", node);
  fwd_.at(static_cast<std::size_t>(node)).push_back(seconds);
}
void MeasuredProfile::record_backward(graph::NodeId node, double seconds) {
  check_seconds(seconds, "backward of node", node);
  bwd_.at(static_cast<std::size_t>(node)).push_back(seconds);
}
void MeasuredProfile::record_d2h(graph::ValueId value, double seconds) {
  check_seconds(seconds, "d2h of value", value);
  d2h_.at(static_cast<std::size_t>(value)).push_back(seconds);
}
void MeasuredProfile::record_h2d(graph::ValueId value, double seconds) {
  check_seconds(seconds, "h2d of value", value);
  h2d_.at(static_cast<std::size_t>(value)).push_back(seconds);
}
void MeasuredProfile::record_update(double seconds) {
  check_seconds(seconds, "update");
  update_.push_back(seconds);
}
void MeasuredProfile::record_iteration_seconds(double seconds) {
  check_seconds(seconds, "iteration");
  iteration_.push_back(seconds);
}

double MeasuredProfile::estimate(const std::vector<double>& samples) const {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  if (outlier_factor_ > 1.0 && median > 0.0) {
    const double lo = median / outlier_factor_;
    const double hi = median * outlier_factor_;
    std::vector<double> kept;
    kept.reserve(sorted.size());
    for (double s : sorted) {
      if (s >= lo && s <= hi) kept.push_back(s);
    }
    rejected_ += static_cast<std::int64_t>(sorted.size() - kept.size());
    if (!kept.empty()) return kept[kept.size() / 2];
  }
  return median;
}

double MeasuredProfile::forward_seconds(graph::NodeId node) const {
  return estimate(fwd_.at(static_cast<std::size_t>(node)));
}
double MeasuredProfile::backward_seconds(graph::NodeId node) const {
  return estimate(bwd_.at(static_cast<std::size_t>(node)));
}
double MeasuredProfile::d2h_seconds(graph::ValueId value) const {
  return estimate(d2h_.at(static_cast<std::size_t>(value)));
}
double MeasuredProfile::h2d_seconds(graph::ValueId value) const {
  return estimate(h2d_.at(static_cast<std::size_t>(value)));
}
double MeasuredProfile::update_seconds() const { return estimate(update_); }
double MeasuredProfile::iteration_seconds() const {
  return estimate(iteration_);
}

bool MeasuredProfile::has_forward(graph::NodeId node) const {
  return !fwd_.at(static_cast<std::size_t>(node)).empty();
}
bool MeasuredProfile::has_backward(graph::NodeId node) const {
  return !bwd_.at(static_cast<std::size_t>(node)).empty();
}
bool MeasuredProfile::has_d2h(graph::ValueId value) const {
  return !d2h_.at(static_cast<std::size_t>(value)).empty();
}
bool MeasuredProfile::has_h2d(graph::ValueId value) const {
  return !h2d_.at(static_cast<std::size_t>(value)).empty();
}

double MeasuredProfile::compute_coverage() const {
  std::size_t observed = 0, total = 0;
  for (const auto& s : fwd_) {
    ++total;
    if (!s.empty()) ++observed;
  }
  for (const auto& s : bwd_) {
    ++total;
    if (!s.empty()) ++observed;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(observed) /
                          static_cast<double>(total);
}

std::int64_t MeasuredProfile::outliers_rejected() const { return rejected_; }

std::int64_t MeasuredProfile::total_samples() const {
  std::int64_t n = static_cast<std::int64_t>(update_.size()) +
                   static_cast<std::int64_t>(iteration_.size());
  for (const auto& s : fwd_) n += static_cast<std::int64_t>(s.size());
  for (const auto& s : bwd_) n += static_cast<std::int64_t>(s.size());
  for (const auto& s : d2h_) n += static_cast<std::int64_t>(s.size());
  for (const auto& s : h2d_) n += static_cast<std::int64_t>(s.size());
  return n;
}

MeasuredProfile measure_op_stream(const graph::Graph& graph,
                                  const exec::OpStream& stream,
                                  sim::DataBackend& data,
                                  const MeasureOptions& options,
                                  std::uint64_t first_iteration) {
  POOCH_CHECK(options.warmup_iterations >= 0);
  POOCH_CHECK(options.iterations >= 1);
  MeasuredProfile profile(graph.num_nodes(), graph.num_values());
  profile.set_outlier_factor(options.outlier_factor);

  // The stream's schedule is iteration-invariant; only the dropout epoch
  // advances. Patch it per run instead of re-recording.
  exec::OpStream run_stream = stream;
  const exec::AsyncExecutor executor(graph, run_stream);
  exec::AsyncOptions ao;
  ao.compute_workers = options.compute_workers;
  ao.workers_per_copy_lane = options.copy_workers;
  ao.time_model = options.time_model;
  ao.stats = options.stats;

  const int total = options.warmup_iterations + options.iterations;
  for (int it = 0; it < total; ++it) {
    run_stream.iteration = first_iteration + static_cast<std::uint64_t>(it);
    exec::AsyncResult res = executor.run(data, ao);
    if (!res.ok) {
      throw Error("measure_op_stream: iteration " + std::to_string(it) +
                  " failed: " + res.failure);
    }
    if (it >= options.warmup_iterations) profile.record_run(run_stream, res);
    if (options.keep_runs) options.keep_runs->push_back(std::move(res));
  }

  if (options.stats) {
    auto& s = *options.stats;
    s.counter("calibration.measured_iterations")
        .add(static_cast<std::uint64_t>(options.iterations));
    s.counter("calibration.warmup_iterations")
        .add(static_cast<std::uint64_t>(options.warmup_iterations));
    s.counter("calibration.samples")
        .add(static_cast<std::uint64_t>(profile.total_samples()));
    s.gauge("calibration.last.compute_coverage")
        .set(profile.compute_coverage());
    s.gauge("calibration.last.iteration_seconds")
        .set(profile.iteration_seconds());
  }
  POOCH_LOG_INFO("measured " << options.iterations << " iterations ("
                             << options.warmup_iterations << " warm-up), "
                             << profile.total_samples() << " samples, "
                             << profile.compute_coverage() * 100.0
                             << "% compute coverage");
  return profile;
}

}  // namespace pooch::profile
