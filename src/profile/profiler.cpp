#include "profile/profiler.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"

namespace pooch::profile {

using graph::Graph;
using graph::ValueId;

MeasuredProfile run_profiler(const Graph& graph,
                             const std::vector<graph::BwdStep>& tape,
                             const cost::MachineConfig& machine,
                             const sim::TimeModel& ground_truth,
                             const ProfileOptions& options) {
  POOCH_CHECK(options.iterations > 0);
  const std::size_t nn = static_cast<std::size_t>(graph.num_nodes());
  const std::size_t nv = static_cast<std::size_t>(graph.num_values());
  MeasuredProfile profile(graph.num_nodes(), graph.num_values());

  // What the profiled iterations observe: the hardware through jittery
  // measurements. Sigma 0 degenerates to exact observation.
  sim::NoisyTimeModel observed(ground_truth, options.noise_sigma,
                               options.noise_seed);
  sim::Runtime runtime(graph, tape, machine, observed);

  // §4.2: "all feature maps are classified into swap as the default".
  // Under extreme memory pressure even the eager schedule can fail; the
  // profiler then falls back to on-demand swap-ins (slower iterations,
  // but the measured per-op times are the same).
  const sim::Classification swap_all(graph, sim::ValueClass::kSwap);
  sim::RunOptions ro;
  ro.swapin_policy = options.policy;
  if (!runtime.run(swap_all, ro).ok) {
    ro.swapin_policy = sim::SwapInPolicy::kOnDemand;
    if (!runtime.run(swap_all, ro).ok) {
      POOCH_LOG_WARN("profiling impossible: swap-all OOMs even with "
                     "on-demand scheduling");
      return profile;
    }
    POOCH_LOG_INFO("profiler fell back to on-demand swap-ins");
  }

  // Per-op sums and sample counts over the iterations.
  std::vector<double> fwd(nn, 0.0), bwd(nn, 0.0), d2h(nv, 0.0), h2d(nv, 0.0);
  std::vector<int> fwd_n(nn, 0), bwd_n(nn, 0), d2h_n(nv, 0), h2d_n(nv, 0);
  double update = 0.0, xfer_bytes = 0.0, xfer_seconds = 0.0;

  ro.record_timeline = true;
  for (int it = 0; it < options.iterations; ++it) {
    ro.iteration = static_cast<std::uint64_t>(it);
    const sim::RunResult r = runtime.run(swap_all, ro);
    POOCH_CHECK_MSG(r.ok, "profiling iteration failed: " << r.failure);
    profile.record_iteration_seconds(r.iteration_time);

    for (const auto& op : r.timeline.ops) {
      const double dur = op.end - op.start;
      const std::size_t ni = static_cast<std::size_t>(op.node);
      const std::size_t vi = static_cast<std::size_t>(op.value);
      switch (op.kind) {
        case sim::OpKind::kForward:
          fwd[ni] += dur;
          ++fwd_n[ni];
          break;
        case sim::OpKind::kBackward:
          bwd[ni] += dur;
          ++bwd_n[ni];
          break;
        case sim::OpKind::kSwapOut:
        case sim::OpKind::kSwapIn: {
          const bool out = op.kind == sim::OpKind::kSwapOut;
          (out ? d2h : h2d)[vi] += dur;
          ++(out ? d2h_n : h2d_n)[vi];
          xfer_bytes += static_cast<double>(graph.value(op.value).byte_size());
          xfer_seconds += dur;
          break;
        }
        case sim::OpKind::kUpdate:
          update += dur;
          break;
        case sim::OpKind::kRecompute:
          break;  // none under swap-all
      }
    }
  }

  // One sample per op: its mean over the iterations.
  for (graph::NodeId n = 0; n < graph.num_nodes(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    if (fwd_n[i] > 0) profile.record_forward(n, fwd[i] / fwd_n[i]);
    if (bwd_n[i] > 0) profile.record_backward(n, bwd[i] / bwd_n[i]);
  }
  // A value never moved while profiling is priced from the effective
  // host-device bandwidth the moved ones achieved.
  if (xfer_seconds > 0.0) {
    const double bytes_per_sec = xfer_bytes / xfer_seconds;
    for (ValueId v = 0; v < graph.num_values(); ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      const double unmoved =
          static_cast<double>(graph.value(v).byte_size()) / bytes_per_sec +
          machine.link_latency_s;
      profile.record_d2h(v, d2h_n[i] > 0 ? d2h[i] / d2h_n[i] : unmoved);
      profile.record_h2d(v, h2d_n[i] > 0 ? h2d[i] / h2d_n[i] : unmoved);
    }
  }
  profile.record_update(update / options.iterations);

  POOCH_LOG_INFO("profiled " << options.iterations << " iterations, median "
                             << profile.iteration_seconds()
                             << "s simulated each");
  return profile;
}

}  // namespace pooch::profile
