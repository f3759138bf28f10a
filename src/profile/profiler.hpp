// Runtime profiling (paper §4.2).
//
// PoocH's first phase runs a few training iterations with the safe
// default classification (everything swapped) and records, per layer and
// per feature map, what it observed: forward/backward kernel times and
// swap-out/swap-in transfer times. The classifier then plans against
// these *measurements* — not against the hardware model — preserving the
// paper's profile -> classify -> execute structure even though our
// "hardware" is the roofline model (observed through the same virtual
// runtime, with optional measurement noise).
//
// The result is the same MeasuredProfile the wall-clock profiler fills
// (measured_profile.hpp), served to the planner through
// cost::CalibratedTimeModel: one profile format, one table model.
#pragma once

#include <cstdint>
#include <vector>

#include "profile/measured_profile.hpp"
#include "sim/runtime.hpp"
#include "sim/time_model.hpp"

namespace pooch::profile {

struct ProfileOptions {
  /// Training iterations to profile (paper: "the first several").
  int iterations = 3;
  /// Relative measurement noise injected per kernel/transfer observation.
  double noise_sigma = 0.02;
  std::uint64_t noise_seed = 0x9e3779b9;
  /// Swap-in scheduling used during the profiled iterations.
  sim::SwapInPolicy policy = sim::SwapInPolicy::kEagerMemoryAware;
};

/// Run the profiling phase. `ground_truth` is the hardware being
/// observed; measurements pass through NoisyTimeModel jitter.
///
/// Each op's observations are averaged over the iterations and the mean
/// is recorded as its single sample, so the profile's median serves the
/// mean exactly. Every value is priced for both transfer directions: a
/// value never moved during profiling gets bytes / observed effective
/// bandwidth + link latency. Each simulated iteration time is recorded
/// with record_iteration_seconds. The profile is empty
/// (iterations_recorded() == 0) when even swap-all with on-demand
/// swap-ins runs out of memory: the workload is out of reach.
MeasuredProfile run_profiler(const graph::Graph& graph,
                             const std::vector<graph::BwdStep>& tape,
                             const cost::MachineConfig& machine,
                             const sim::TimeModel& ground_truth,
                             const ProfileOptions& options = {});

}  // namespace pooch::profile
