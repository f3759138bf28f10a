#include "sim/runtime.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "exec/op_stream.hpp"
#include "mem/arena.hpp"
#include "mem/host_pool.hpp"
#include "obs/stats.hpp"

namespace pooch::sim {

using graph::BwdStep;
using graph::Graph;
using graph::kNoNode;
using graph::LayerKind;
using graph::NodeId;
using graph::ValueId;

namespace {

/// Internal unwinding token for simulated out-of-memory; converted into a
/// RunResult by Runtime::run (OOM is an outcome, not an API error).
struct OomUnwind {
  std::string what;
};

struct FreeEvent {
  double time = 0.0;
  mem::Offset offset = 0;
  ValueId blame = -1;
  bool from_d2h = false;
};

struct FreeEventLater {
  bool operator()(const FreeEvent& a, const FreeEvent& b) const {
    return a.time > b.time;
  }
};

struct ValueState {
  std::optional<mem::Offset> dev;
  double ready = 0.0;     // device availability time
  double d2h_end = -1.0;  // completion of the swap-out; <0 = none issued
  bool on_host = false;
  bool swapin_issued = false;
  bool consumed = false;  // its first backward need has been processed
  bool pinned = false;    // operand of the op being scheduled right now
  int fwd_remaining = 0;
};

struct QueueEntry {
  ValueId value = -1;
  int need_step = 0;
  int trigger_step = 0;
};

struct IssuedPrefetch {
  ValueId value = -1;
  mem::Offset offset = 0;
  double h2d_start = 0.0;
  double prev_cursor = 0.0;  // h2d cursor before this issue (for rollback)
  std::size_t queue_index = 0;
};

struct AllocOutcome {
  mem::Offset offset = 0;
  double time = 0.0;      // when the allocation could be satisfied
  ValueId blame = -1;     // d2h completion that had to be waited for
};

class Exec {
 public:
  Exec(const Graph& graph, const std::vector<BwdStep>& tape,
       const cost::MachineConfig& machine, const TimeModel& tm,
       const Classification& classes, const RunOptions& opts)
      : g_(graph),
        tape_(tape),
        machine_(machine),
        tm_(tm),
        opts_(opts),
        plan_(build_backward_plan(graph, tape, classes)),
        arena_(0),
        host_(machine.host_capacity_bytes) {
    result_.persistent_bytes = 2 * g_.total_param_bytes();
    std::size_t usable = machine_.usable_gpu_bytes();
    if (opts_.usable_bytes_override > 0) {
      usable = std::min(usable, opts_.usable_bytes_override);
    }
    if (result_.persistent_bytes >= usable) {
      throw OomUnwind{"persistent parameter pool (" +
                      format_bytes(result_.persistent_bytes) +
                      ") exceeds usable device memory (" +
                      format_bytes(usable) + ")"};
    }
    arena_ = mem::Arena(usable - result_.persistent_bytes);
    result_.arena_capacity = arena_.capacity();
    states_.resize(static_cast<std::size_t>(g_.num_values()));
    grad_dev_.resize(static_cast<std::size_t>(g_.num_values()));
    result_.stall_by_value.assign(static_cast<std::size_t>(g_.num_values()),
                                  0.0);
    result_.swapin_issue_step.assign(
        static_cast<std::size_t>(g_.num_values()), -1);
    for (const auto& v : g_.values()) {
      states_[static_cast<std::size_t>(v.id)].fwd_remaining =
          plan_.fwd_consumers[static_cast<std::size_t>(v.id)];
    }
    has_fixed_schedule_ =
        opts_.fixed_swapin_schedule != nullptr &&
        opts_.fixed_swapin_schedule->size() ==
            static_cast<std::size_t>(g_.num_values());
    if (opts_.export_stream) {
      opts_.export_stream->ops.clear();
      xb_.emplace(g_.num_values());
    }
    build_prefetch_queue();
    build_free_indices();
  }

  RunResult run() {
    run_forward_phase();
    run_backward_phase();
    run_update();
    result_.ok = true;
    result_.iteration_time = t_comp_;
    bump("runtime.runs");
    if (xb_) *opts_.export_stream = xb_->finish(opts_.iteration);
    finalize();
    return std::move(result_);
  }

  RunResult fail(std::string why) {
    result_.ok = false;
    result_.oom = true;
    result_.failure = std::move(why);
    bump("runtime.oom");
    finalize();
    return std::move(result_);
  }

 private:
  // ---- bookkeeping -------------------------------------------------

  ValueState& st(ValueId v) { return states_[static_cast<std::size_t>(v)]; }
  std::size_t vbytes(ValueId v) const { return g_.value(v).byte_size(); }

  // ---- op-stream export ----------------------------------------------
  //
  // Every scheduled compute op, transfer and free emits one StreamOp when
  // export is on. The stream is the run's whole numeric content: a
  // backend executes it (Runtime::run's replay, or exec::AsyncExecutor).

  void export_compute(exec::OpType type, NodeId node,
                      std::span<const ValueId> touched, double start,
                      double end) {
    if (!xb_) return;
    xb_->emit(type, node,
              type == exec::OpType::kForward ||
                      type == exec::OpType::kRecompute
                  ? g_.node(node).output
                  : -1,
              touched, 0, start, end);
  }

  void export_free_value(ValueId v, double t, bool releases_host) {
    if (!xb_) return;
    const int i = xb_->emit_value(exec::OpType::kFreeValue, v, 0, t, t);
    if (releases_host) xb_->set_releases_host(i, vbytes(v));
  }

  // ---- metrics -----------------------------------------------------

  void bump(const char* name, std::uint64_t n = 1) {
    if (opts_.stats) opts_.stats->counter(name).add(n);
  }
  void set_gauge(const char* name, double v) {
    if (opts_.stats) opts_.stats->gauge(name).set(v);
  }
  void observe(const char* name, double v) {
    if (opts_.stats) opts_.stats->histogram(name).add(v);
  }

  void build_prefetch_queue() {
    for (std::size_t k = 0; k < plan_.steps.size(); ++k) {
      for (const PrepOp& op : plan_.steps[k].preps) {
        if (op.kind != PrepOp::Kind::kSwapIn) continue;
        QueueEntry e;
        e.value = op.value;
        e.need_step = static_cast<int>(k);
        if (has_fixed_schedule_) {
          const int s0 = (*opts_.fixed_swapin_schedule)[static_cast<
              std::size_t>(op.value)];
          e.trigger_step = s0 >= 0 ? std::min(s0, static_cast<int>(k))
                                   : static_cast<int>(k);
        } else {
          e.trigger_step = trigger_step_for(static_cast<int>(k));
        }
        queue_.push_back(e);
      }
    }
  }

  int trigger_step_for(int need_step) const {
    switch (opts_.swapin_policy) {
      case SwapInPolicy::kOnDemand:
        return need_step;
      case SwapInPolicy::kLookahead1:
        return std::max(0, need_step - 1);
      case SwapInPolicy::kLookaheadPrevConv: {
        for (int k = need_step - 1; k >= 0; --k) {
          if (g_.node(tape_[static_cast<std::size_t>(k)].node).kind ==
              LayerKind::kConv) {
            return k;
          }
        }
        return 0;
      }
      case SwapInPolicy::kEagerMemoryAware:
        return 0;  // eligible immediately; gated by free memory instead
    }
    return need_step;
  }

  void build_free_indices() {
    values_by_last_use_.resize(plan_.steps.size());
    grad_arena_free_by_step_.resize(plan_.steps.size());
    grad_backend_free_by_step_.resize(plan_.steps.size());
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      if (plan_.last_use_step[vi] >= 0) {
        values_by_last_use_[static_cast<std::size_t>(plan_.last_use_step[vi])]
            .push_back(v);
      }
      // Arena buffers belong to alias roots and live until the last
      // aliased consumer; the backend's per-value tensors release at
      // their own last step.
      if (plan_.root_free_step[vi] >= 0 && plan_.grad_root[vi] == v) {
        grad_arena_free_by_step_[static_cast<std::size_t>(
                                     plan_.root_free_step[vi])]
            .push_back(v);
      }
      if (plan_.grad_last_step[vi] >= 0) {
        grad_backend_free_by_step_[static_cast<std::size_t>(
                                       plan_.grad_last_step[vi])]
            .push_back(v);
      }
    }
  }

  // ---- memory ------------------------------------------------------

  void schedule_free(mem::Offset off, double time, ValueId blame,
                     bool from_d2h) {
    pending_.push(FreeEvent{time, off, blame, from_d2h});
  }

  void apply_frees_until(double t) {
    while (!pending_.empty() && pending_.top().time <= t) {
      arena_.free(pending_.top().offset);
      pending_.pop();
    }
  }

  /// Allocate, advancing virtual time through pending frees if needed.
  /// Tries to cancel not-yet-started prefetches before giving up.
  AllocOutcome blocking_alloc(std::size_t bytes, double t_req,
                              const char* what,
                              mem::AllocSide side = mem::AllocSide::kBottom) {
    if (opts_.naive_placement) side = mem::AllocSide::kBottom;
    AllocOutcome out;
    out.time = t_req;
    apply_frees_until(t_req);
    for (;;) {
      if (auto off = arena_.allocate(bytes, side)) {
        out.offset = *off;
        return out;
      }
      if (!pending_.empty()) {
        const FreeEvent ev = pending_.top();
        pending_.pop();
        arena_.free(ev.offset);
        out.time = std::max(out.time, ev.time);
        if (ev.from_d2h) out.blame = ev.blame;
        continue;
      }
      // Rescue chain: revoke or drop clean pages before giving up. (The
      // blind-prefetch baseline fails earlier — at issue time — but its
      // allocator still reclaims clean pages like everyone else's.)
      if (cancel_latest_prefetch(out.time)) continue;
      if (evict_completed_prefetch(out.time)) continue;
      if (evict_clean_resident(out.time)) continue;
      if (wait_and_evict_inflight_prefetch(out.time)) continue;
      std::ostringstream os;
      os << "device OOM allocating " << format_bytes(bytes) << " for " << what
         << " at t=" << format_time(out.time) << "\n"
         << arena_.debug_string() << resident_values_string();
      throw OomUnwind{os.str()};
    }
  }

  /// Resident feature maps and gradients, largest first (OOM forensics).
  std::string resident_values_string() const {
    std::vector<std::pair<std::size_t, std::string>> rows;
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      const auto& s = states_[static_cast<std::size_t>(v)];
      if (s.dev.has_value()) {
        std::string tags;
        if (s.on_host) tags += " host";
        if (s.pinned) tags += " pinned";
        if (s.swapin_issued) tags += " swapin";
        if (s.consumed) tags += " consumed";
        rows.emplace_back(vbytes(v), "  v" + std::to_string(v) + " '" +
                                         g_.value(v).name + "'" + tags);
      }
      if (grad_dev_[static_cast<std::size_t>(v)].has_value()) {
        rows.emplace_back(vbytes(v), "  grad v" + std::to_string(v) + " '" +
                                         g_.value(v).name + "'");
      }
    }
    std::sort(rows.rbegin(), rows.rend());
    std::ostringstream os;
    os << "resident buffers (" << rows.size() << "):\n";
    for (std::size_t i = 0; i < rows.size() && i < 30; ++i) {
      os << rows[i].second << " " << format_bytes(rows[i].first) << "\n";
    }
    return os.str();
  }

  /// Non-waiting allocation attempt at time t.
  std::optional<mem::Offset> try_alloc_now(
      std::size_t bytes, double t,
      mem::AllocSide side = mem::AllocSide::kBottom) {
    if (opts_.naive_placement) side = mem::AllocSide::kBottom;
    apply_frees_until(t);
    return arena_.allocate(bytes, side);
  }

  /// Placement of a feature-map buffer: values that persist into the
  /// backward phase anchor at the bottom; everything transient (swapped
  /// maps awaiting D2H, discards, swap-in buffers, recompute outputs)
  /// churns at the top alongside gradients and workspace.
  mem::AllocSide value_side(ValueId v) const {
    const std::size_t vi = static_cast<std::size_t>(v);
    return (plan_.swap_out[vi] || plan_.discard[vi]) ? mem::AllocSide::kTop
                                                     : mem::AllocSide::kBottom;
  }

  /// True when an issued_ record still describes the value's actual
  /// buffer (clean-page eviction can invalidate records in place).
  bool prefetch_record_valid(const IssuedPrefetch& p) {
    const ValueState& s = st(p.value);
    return s.swapin_issued && s.dev.has_value() && *s.dev == p.offset;
  }

  /// A cancelled prefetch never ran its DMA: take it back out of the
  /// timeline (busy accounting and, when recorded, the op span itself),
  /// or the H2D stream would show two transfers over the same interval
  /// after the cursor rollback. The duration comes from the H2D cursor
  /// (this prefetch is the stream's latest issue, so the cursor sits at
  /// its end) — never from re-querying the time model, whose noisy
  /// profiling variant draws fresh jitter per call.
  void unrecord_swapin(const IssuedPrefetch& p) {
    result_.timeline.h2d_busy -= t_h2d_ - p.h2d_start;
    if (!opts_.record_timeline) return;
    auto& ops = result_.timeline.ops;
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      if (it->kind == OpKind::kSwapIn && it->value == p.value) {
        ops.erase(std::next(it).base());
        return;
      }
    }
  }

  bool cancel_latest_prefetch(double now) {
    while (!issued_.empty() && (st(issued_.back().value).consumed ||
                                !prefetch_record_valid(issued_.back()))) {
      issued_.pop_back();  // already needed or stale; not cancellable
    }
    if (issued_.empty()) return false;
    const IssuedPrefetch p = issued_.back();
    if (p.h2d_start <= now) return false;  // DMA already in flight
    issued_.pop_back();
    arena_.free(p.offset);
    unrecord_swapin(p);  // before the cursor rollback: needs p's end time
    t_h2d_ = p.prev_cursor;
    ValueState& s = st(p.value);
    s.swapin_issued = false;
    s.dev.reset();
    s.ready = 0.0;
    // Mirror unrecord_swapin in the exported stream: the transfer never
    // ran, so tombstone it.
    if (xb_) xb_->cancel_swapin(p.value);
    next_q_ = std::min(next_q_, p.queue_index);
    bump("runtime.rescue.cancel_prefetch");
    return true;
  }

  /// Last resort under memory pressure: drop a prefetched value whose
  /// transfer already completed but that no backward step has consumed
  /// yet. The host copy is intact (it is a clean page), so the value is
  /// simply re-fetched later; the wasted transfer time is real and stays
  /// on the timeline. Evict the latest-needed one first.
  bool evict_completed_prefetch(double now) {
    while (!issued_.empty() && (st(issued_.back().value).consumed ||
                                !prefetch_record_valid(issued_.back()))) {
      issued_.pop_back();
    }
    for (auto it = issued_.rbegin(); it != issued_.rend(); ++it) {
      ValueState& s = st(it->value);
      if (s.consumed || !prefetch_record_valid(*it) || s.ready > now) {
        continue;  // already needed, stale, or DMA still active
      }
      arena_.free(it->offset);
      s.swapin_issued = false;
      s.dev.reset();
      s.ready = 0.0;
      export_free_value(it->value, now, /*releases_host=*/false);
      next_q_ = std::min(next_q_, it->queue_index);
      issued_.erase(std::next(it).base());
      bump("runtime.rescue.evict_completed_prefetch");
      return true;
    }
    return false;
  }

  /// When every other rescue fails but a prefetch DMA is still in
  /// flight, stall until it lands and drop the page (its host copy is
  /// intact). The waited time is honest: the allocation simply could not
  /// proceed sooner.
  bool wait_and_evict_inflight_prefetch(double& now) {
    ValueId best = -1;
    double earliest = 0.0;
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      const ValueState& s = states_[static_cast<std::size_t>(v)];
      if (!s.dev.has_value() || !s.on_host || s.pinned || s.consumed) {
        continue;
      }
      if (s.ready <= now) continue;  // evict_clean_resident handles these
      if (best < 0 || s.ready < earliest) {
        best = v;
        earliest = s.ready;
      }
    }
    if (best < 0) return false;
    now = std::max(now, earliest);
    ValueState& s = st(best);
    arena_.free(*s.dev);
    s.dev.reset();
    s.swapin_issued = false;
    s.ready = 0.0;
    export_free_value(best, now, /*releases_host=*/false);
    bump("runtime.rescue.wait_inflight_prefetch");
    return true;
  }

  /// Defragmentation of last resort: drop the largest resident *clean*
  /// buffer — a swapped value whose host copy is intact — unless it is
  /// pinned by the op being scheduled. Every later use re-fetches it
  /// through require_now(), so correctness is unaffected; the extra
  /// transfer is honest, scheduled when the use arrives.
  bool evict_clean_resident(double now) {
    ValueId best = -1;
    std::size_t best_bytes = 0;
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      const ValueState& s = states_[static_cast<std::size_t>(v)];
      if (!s.dev.has_value() || !s.on_host || s.pinned) continue;
      if (s.ready > now) continue;  // H2D still in flight
      if (vbytes(v) > best_bytes) {
        best_bytes = vbytes(v);
        best = v;
      }
    }
    if (best < 0) return false;
    ValueState& s = st(best);
    arena_.free(*s.dev);
    s.dev.reset();
    s.swapin_issued = false;
    s.ready = 0.0;
    export_free_value(best, now, /*releases_host=*/false);
    bump("runtime.rescue.evict_clean_resident");
    return true;
  }

  // ---- recording -----------------------------------------------------

  void record(OpKind kind, NodeId node, ValueId value, double start,
              double end, double stall, StallCause cause, ValueId blame) {
    switch (kind) {
      case OpKind::kForward:
      case OpKind::kBackward:
      case OpKind::kRecompute:
      case OpKind::kUpdate:
        result_.timeline.compute_busy += end - start;
        result_.timeline.compute_stall += stall;
        result_.compute_stall += stall;
        break;
      case OpKind::kSwapOut:
        result_.timeline.d2h_busy += end - start;
        bump("runtime.swapouts");
        observe("runtime.transfer_seconds", end - start);
        break;
      case OpKind::kSwapIn:
        result_.timeline.h2d_busy += end - start;
        bump("runtime.swapins");
        observe("runtime.transfer_seconds", end - start);
        break;
    }
    if (kind == OpKind::kRecompute) bump("runtime.recomputes");
    if (stall > 0.0) observe("runtime.stall_seconds", stall);
    if (stall > 0.0) {
      if (cause == StallCause::kSwapInWait && blame >= 0) {
        result_.swapin_stall += stall;
        result_.stall_by_value[static_cast<std::size_t>(blame)] += stall;
        mark_unhidden(result_.unhidden_swapins, blame);
      } else if (cause == StallCause::kMemoryWait && blame >= 0) {
        result_.memory_stall += stall;
        result_.stall_by_value[static_cast<std::size_t>(blame)] += stall;
        mark_unhidden(result_.unhidden_swapouts, blame);
      }
    }
    if (!opts_.record_timeline) return;
    OpRecord r;
    r.kind = kind;
    r.node = node;
    r.value = value;
    r.start = start;
    r.end = end;
    r.stall = stall;
    r.stall_cause = cause;
    r.stall_value = blame;
    result_.timeline.ops.push_back(r);
  }

  static void mark_unhidden(std::vector<ValueId>& set, ValueId v) {
    if (std::find(set.begin(), set.end(), v) == set.end()) set.push_back(v);
  }

  // ---- swap transfers ------------------------------------------------

  void issue_swap_out(ValueId v, double after) {
    ValueState& s = st(v);
    POOCH_CHECK(s.dev.has_value());
    if (!host_.reserve(vbytes(v))) {
      throw OomUnwind{"host memory exhausted swapping out v" +
                      std::to_string(v)};
    }
    const double start = std::max(t_d2h_, after);
    const double end = start + tm_.d2h_time(v);
    t_d2h_ = end;
    s.d2h_end = end;
    s.on_host = true;
    if (xb_) xb_->emit_value(exec::OpType::kSwapOut, v, vbytes(v), start, end);
    // The device buffer is reclaimable only once the copy has finished.
    schedule_free(*s.dev, end, v, /*from_d2h=*/true);
    s.dev.reset();
    record(OpKind::kSwapOut, kNoNode, v, start, end, 0.0, StallCause::kNone,
           -1);
  }

  /// Issue the H2D for v. `blocking` allocs may advance virtual time;
  /// non-blocking failures return false.
  bool issue_swap_in(ValueId v, double t, bool blocking,
                     std::size_t queue_index, int issue_step) {
    result_.swapin_issue_step[static_cast<std::size_t>(v)] = issue_step;
    ValueState& s = st(v);
    POOCH_CHECK(s.on_host && !s.swapin_issued);
    double t_alloc = t;
    mem::Offset off;
    if (blocking) {
      AllocOutcome a = blocking_alloc(vbytes(v), t, "swap-in buffer",
                                      mem::AllocSide::kTop);
      off = a.offset;
      t_alloc = a.time;
      if (a.blame >= 0 && a.time > t) {
        result_.memory_stall += a.time - t;
        mark_unhidden(result_.unhidden_swapouts, a.blame);
      }
    } else {
      auto maybe = try_alloc_now(vbytes(v), t, mem::AllocSide::kTop);
      if (!maybe) return false;
      off = *maybe;
    }
    const double prev_cursor = t_h2d_;
    const double start = std::max({t_h2d_, t_alloc, s.d2h_end});
    const double end = start + tm_.h2d_time(v);
    t_h2d_ = end;
    s.dev = off;
    s.ready = end;
    s.swapin_issued = true;
    if (xb_) xb_->emit_value(exec::OpType::kSwapIn, v, vbytes(v), start, end);
    if (!blocking) {
      issued_.push_back(IssuedPrefetch{v, off, start, prev_cursor,
                                       queue_index});
    }
    record(OpKind::kSwapIn, kNoNode, v, start, end, 0.0, StallCause::kNone,
           -1);
    return true;
  }

  /// Issue queued swap-ins whose trigger has arrived (or, for the eager
  /// policy, for which there is memory headroom).
  void prefetch_tick(int step, double t) {
    const bool eager = opts_.swapin_policy == SwapInPolicy::kEagerMemoryAware;
    while (next_q_ < queue_.size()) {
      const QueueEntry& e = queue_[next_q_];
      ValueState& s = st(e.value);
      // Skip entries that no longer need a transfer: already issued or
      // resident, or (after a queue rewind past a clean-page eviction)
      // already past their last use and freed entirely.
      if (s.swapin_issued || s.dev.has_value() || !s.on_host) {
        ++next_q_;
        continue;
      }
      if (e.trigger_step > step) break;
      if (eager && !has_fixed_schedule_) {
        // §4.3: issue only "when there is room in the GPU memory" — room
        // meaning the buffer plus the near-future transient needs.
        if (s.d2h_end > t) break;  // still being copied out
        apply_frees_until(t);
        const std::size_t headroom = static_cast<std::size_t>(
            static_cast<double>(upcoming_transients(step, e.need_step)) *
            opts_.headroom_factor);
        if (arena_.free_bytes() < vbytes(e.value) + headroom) {
          bump("runtime.prefetch.headroom_blocked");
          break;
        }
        if (!issue_swap_in(e.value, t, /*blocking=*/false, next_q_, step)) {
          break;
        }
      } else {
        if (!issue_swap_in(e.value, t, /*blocking=*/false, next_q_, step)) {
          if (opts_.oom_on_prefetch_failure) {
            std::ostringstream os;
            os << "prefetch OOM: swap-in of v" << e.value << " ("
               << format_bytes(vbytes(e.value))
               << ") scheduled without memory headroom at backward step "
               << step << "\n"
               << arena_.debug_string();
            throw OomUnwind{os.str()};
          }
          break;  // retry at the next opportunity
        }
      }
      ++next_q_;
    }
  }

  /// Largest per-step transient requirement between now and the step
  /// that will consume a prospective prefetch: the prefetched buffer has
  /// to coexist with each of them.
  std::size_t upcoming_transients(int step, int need_step) const {
    const int last =
        std::min(need_step, static_cast<int>(plan_.steps.size()) - 1);
    std::size_t bytes = 0;
    for (int s = step; s <= last; ++s) {
      bytes = std::max(bytes,
                       plan_.steps[static_cast<std::size_t>(s)].transient_bytes);
    }
    return bytes;
  }

  // ---- forward phase -------------------------------------------------

  void place_graph_inputs() {
    export_compute(exec::OpType::kBeginIteration, kNoNode, g_.inputs(), 0.0,
                   0.0);
    for (ValueId in : g_.inputs()) {
      AllocOutcome a =
          blocking_alloc(vbytes(in), 0.0, "graph input", value_side(in));
      st(in).dev = a.offset;
      st(in).ready = 0.0;
      if (st(in).fwd_remaining == 0) finish_forward_use(in, 0.0);
    }
  }

  void finish_forward_use(ValueId v, double t) {
    const std::size_t vi = static_cast<std::size_t>(v);
    ValueState& s = st(v);
    if (!s.dev.has_value()) return;
    if (plan_.discard[vi]) {
      schedule_free(*s.dev, t, v, /*from_d2h=*/false);
      s.dev.reset();
      export_free_value(v, t, /*releases_host=*/false);
      return;
    }
    if (plan_.swap_out[vi]) {
      issue_swap_out(v, t);
      return;
    }
    // keep: stays resident; freed after its last backward use.
  }

  void run_forward_phase() {
    place_graph_inputs();
    for (const auto& node : g_.nodes()) {
      const ValueId out = node.output;
      AllocOutcome a_out = blocking_alloc(vbytes(out), t_comp_,
                                          g_.node(node.id).name.c_str(),
                                          value_side(out));
      double t_alloc = a_out.time;
      ValueId mem_blame = a_out.blame;
      const std::size_t ws = g_.workspace_bytes(node.id);
      std::optional<mem::Offset> ws_off;
      if (ws > 0) {
        AllocOutcome a_ws = blocking_alloc(ws, t_alloc, "conv workspace",
                                           mem::AllocSide::kTop);
        ws_off = a_ws.offset;
        t_alloc = std::max(t_alloc, a_ws.time);
        if (a_ws.blame >= 0) mem_blame = a_ws.blame;
      }
      double dep = 0.0;
      for (ValueId in : node.inputs) dep = std::max(dep, st(in).ready);
      const double start = std::max({t_comp_, t_alloc, dep});
      const double stall = start - t_comp_;
      StallCause cause = StallCause::kNone;
      ValueId blame = -1;
      if (stall > 0.0 && t_alloc >= dep && mem_blame >= 0) {
        cause = StallCause::kMemoryWait;
        blame = mem_blame;
      }
      const double end = start + tm_.forward_time(node.id);
      if (xb_) {
        touched_scratch_.assign(node.inputs.begin(), node.inputs.end());
        touched_scratch_.push_back(out);
        export_compute(exec::OpType::kForward, node.id, touched_scratch_,
                       start, end);
      }
      record(OpKind::kForward, node.id, out, start, end, stall, cause, blame);
      st(out).dev = a_out.offset;
      st(out).ready = end;
      if (ws_off) schedule_free(*ws_off, end, -1, false);
      t_comp_ = end;
      for (ValueId in : node.inputs) {
        if (--st(in).fwd_remaining == 0) finish_forward_use(in, end);
      }
      if (st(out).fwd_remaining == 0) finish_forward_use(out, end);
    }
    result_.forward_time = t_comp_;
    result_.timeline.forward_end = t_comp_;
    // Swap-outs still in flight when forward compute finished are, by the
    // paper's Figure-11 definition, not hidden by computation.
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      if (st(v).d2h_end > t_comp_) {
        mark_unhidden(result_.unhidden_swapouts, v);
      }
    }
  }

  // ---- backward phase --------------------------------------------------

  /// Bring v on device for a compute op at step `k`; returns availability
  /// time. On-demand swap-ins are blocking.
  double require_now(ValueId v, double t) {
    ValueState& s = st(v);
    s.consumed = true;
    if (!s.pinned) {
      s.pinned = true;
      pins_.push_back(v);
    }
    if (s.dev.has_value()) return s.ready;
    POOCH_CHECK_MSG(s.on_host && !s.swapin_issued,
                    "value v" << v << " needed but neither resident nor "
                              << "swappable (classification bug)");
    issue_swap_in(v, t, /*blocking=*/true, 0, current_step_);
    return s.ready;
  }

  void clear_pins() {
    for (ValueId v : pins_) st(v).pinned = false;
    pins_.clear();
  }

  void run_recompute(const PrepOp& op, int step) {
    const auto& node = g_.node(op.node);
    const ValueId out = op.value;
    // Sources were materialized by earlier preps of this (or a prior)
    // step; mark their use and gather readiness.
    double dep = 0.0;
    ValueId dep_blame = -1;
    for (ValueId in : node.inputs) {
      const double r = require_now(in, t_comp_);
      if (r > dep) {
        dep = r;
        dep_blame = in;
      }
    }
    AllocOutcome a_out = blocking_alloc(vbytes(out), t_comp_, "recompute out",
                                        mem::AllocSide::kTop);
    double t_alloc = a_out.time;
    ValueId mem_blame = a_out.blame;
    const std::size_t ws = g_.workspace_bytes(node.id);
    std::optional<mem::Offset> ws_off;
    if (ws > 0) {
      AllocOutcome a_ws = blocking_alloc(ws, t_alloc, "recompute workspace",
                                         mem::AllocSide::kTop);
      ws_off = a_ws.offset;
      t_alloc = std::max(t_alloc, a_ws.time);
      if (a_ws.blame >= 0) mem_blame = a_ws.blame;
    }
    const double start = std::max({t_comp_, t_alloc, dep});
    const double stall = start - t_comp_;
    StallCause cause = StallCause::kNone;
    ValueId blame = -1;
    if (stall > 0.0) {
      if (dep >= t_alloc && dep_blame >= 0 && st(dep_blame).swapin_issued) {
        cause = StallCause::kSwapInWait;
        blame = dep_blame;
      } else if (mem_blame >= 0) {
        cause = StallCause::kMemoryWait;
        blame = mem_blame;
      } else {
        cause = StallCause::kDependency;
      }
    }
    const double dur = tm_.forward_time(node.id);
    const double end = start + dur;
    result_.recompute_seconds += dur;
    if (xb_) {
      touched_scratch_.assign(node.inputs.begin(), node.inputs.end());
      touched_scratch_.push_back(out);
      export_compute(exec::OpType::kRecompute, node.id, touched_scratch_,
                     start, end);
    }
    record(OpKind::kRecompute, node.id, out, start, end, stall, cause, blame);
    if (ws_off) schedule_free(*ws_off, end, -1, false);
    ValueState& s = st(out);
    s.dev = a_out.offset;
    s.ready = end;
    s.consumed = true;
    t_comp_ = end;
    clear_pins();
    (void)step;
  }

  void run_backward_phase() {
    for (std::size_t k = 0; k < tape_.size(); ++k) {
      const int step = static_cast<int>(k);
      current_step_ = step;
      const BwdStep& bstep = tape_[k];
      const StepPlan& splan = plan_.steps[k];
      prefetch_tick(step, t_comp_);

      // Prep ops (swap-ins issued on demand if the prefetcher has not
      // covered them; recompute chains re-run on the compute stream).
      for (const PrepOp& op : splan.preps) {
        if (op.kind == PrepOp::Kind::kSwapIn) {
          ValueState& s = st(op.value);
          s.consumed = true;
          if (!s.swapin_issued && !s.dev.has_value()) {
            issue_swap_in(op.value, t_comp_, /*blocking=*/true, 0, step);
          }
        } else {
          run_recompute(op, step);
        }
      }

      // Gradient buffers first written by this step.
      double t_alloc = t_comp_;
      ValueId mem_blame = -1;
      // Gradients interleave stack-like with the shrinking keep prefix,
      // so they pack best at the bottom.
      for (ValueId v : splan.grad_allocs) {
        AllocOutcome a = blocking_alloc(vbytes(v), t_alloc, "gradient",
                                        mem::AllocSide::kBottom);
        grad_dev_[static_cast<std::size_t>(v)] = a.offset;
        t_alloc = std::max(t_alloc, a.time);
        if (a.blame >= 0) mem_blame = a.blame;
      }
      // Backward workspace: conv uses two column buffers, allocated
      // separately (they need not be contiguous).
      const std::size_t ws = g_.workspace_bytes(bstep.node);
      std::optional<mem::Offset> ws_off, ws2_off;
      if (ws > 0) {
        AllocOutcome a = blocking_alloc(ws, t_alloc, "backward workspace",
                                        mem::AllocSide::kTop);
        ws_off = a.offset;
        t_alloc = std::max(t_alloc, a.time);
        if (a.blame >= 0) mem_blame = a.blame;
        AllocOutcome a2 = blocking_alloc(ws, t_alloc, "backward workspace",
                                         mem::AllocSide::kTop);
        ws2_off = a2.offset;
        t_alloc = std::max(t_alloc, a2.time);
        if (a2.blame >= 0) mem_blame = a2.blame;
      }

      // Stored feature maps this backward kernel reads.
      double dep = 0.0;
      ValueId dep_blame = -1;
      for (ValueId v : bstep.needed) {
        const double r = require_now(v, t_comp_);
        if (r > dep) {
          dep = r;
          dep_blame = v;
        }
      }

      const double start = std::max({t_comp_, t_alloc, dep});
      const double stall = start - t_comp_;
      StallCause cause = StallCause::kNone;
      ValueId blame = -1;
      if (stall > 0.0) {
        if (dep >= t_alloc && dep_blame >= 0 && st(dep_blame).swapin_issued) {
          cause = StallCause::kSwapInWait;
          blame = dep_blame;
        } else if (mem_blame >= 0) {
          cause = StallCause::kMemoryWait;
          blame = mem_blame;
        } else {
          cause = StallCause::kDependency;
        }
      }
      const double end = start + tm_.backward_time(bstep.node);
      export_compute(exec::OpType::kBackward, bstep.node, bstep.needed, start,
                     end);
      record(OpKind::kBackward, bstep.node, g_.node(bstep.node).output, start,
             end, stall, cause, blame);
      t_comp_ = end;
      clear_pins();

      if (ws_off) schedule_free(*ws_off, end, -1, false);
      if (ws2_off) schedule_free(*ws2_off, end, -1, false);

      // Free feature maps whose last backward use was this step.
      for (ValueId v : values_by_last_use_[k]) {
        ValueState& s = st(v);
        export_free_value(v, end, /*releases_host=*/s.on_host);
        if (s.dev.has_value()) {
          schedule_free(*s.dev, end, v, false);
          s.dev.reset();
        }
        if (s.on_host) {
          host_.release(vbytes(v));
          s.on_host = false;
        }
      }
      // Free gradient buffers whose last aliased consumer was this step.
      for (ValueId v : grad_arena_free_by_step_[k]) {
        auto& go = grad_dev_[static_cast<std::size_t>(v)];
        if (go.has_value()) {
          schedule_free(*go, end, v, false);
          go.reset();
        }
      }
      for (ValueId v : grad_backend_free_by_step_[k]) {
        // Gradient slots are compute-lane-only: no value-slot touch, no
        // cross-lane edges.
        if (xb_) {
          xb_->emit(exec::OpType::kFreeGrad, kNoNode, v, {}, 0, end, end);
        }
      }
    }
  }

  void run_update() {
    const double start = t_comp_;
    const double end = start + tm_.update_time();
    export_compute(exec::OpType::kUpdate, kNoNode, {}, start, end);
    record(OpKind::kUpdate, kNoNode, -1, start, end, 0.0, StallCause::kNone,
           -1);
    t_comp_ = end;
  }

  void finalize() {
    result_.peak_arena_bytes = arena_.stats().peak_in_use;
    result_.peak_bytes = result_.peak_arena_bytes + result_.persistent_bytes;
    result_.peak_host_bytes = host_.peak_in_use();
    result_.swapped_bytes = plan_.swap_bytes;
    result_.recomputed_bytes = plan_.recompute_bytes;
    std::sort(result_.unhidden_swapouts.begin(),
              result_.unhidden_swapouts.end());
    std::sort(result_.unhidden_swapins.begin(),
              result_.unhidden_swapins.end());
    if (!opts_.stats) return;
    set_gauge("runtime.last.iteration_seconds", result_.iteration_time);
    set_gauge("runtime.last.forward_seconds", result_.forward_time);
    set_gauge("runtime.last.compute_busy_seconds",
              result_.timeline.compute_busy);
    set_gauge("runtime.last.d2h_busy_seconds", result_.timeline.d2h_busy);
    set_gauge("runtime.last.h2d_busy_seconds", result_.timeline.h2d_busy);
    set_gauge("runtime.last.compute_stall_seconds", result_.compute_stall);
    set_gauge("runtime.last.swapin_stall_seconds", result_.swapin_stall);
    set_gauge("runtime.last.memory_stall_seconds", result_.memory_stall);
    set_gauge("runtime.last.recompute_seconds", result_.recompute_seconds);
    const mem::ArenaStats& a = arena_.stats();
    bump("arena.allocs", a.alloc_count);
    bump("arena.frees", a.free_count);
    bump("arena.failed_allocs", a.failed_allocs);
    bump("arena.splits", a.split_count);
    bump("arena.coalesces", a.coalesce_count);
    set_gauge("arena.last.peak_bytes",
              static_cast<double>(a.peak_in_use));
    set_gauge("arena.last.fragmentation", a.fragmentation());
    set_gauge("host.last.peak_bytes",
              static_cast<double>(host_.peak_in_use()));
  }

  // ---- state ---------------------------------------------------------

  const Graph& g_;
  const std::vector<BwdStep>& tape_;
  const cost::MachineConfig& machine_;
  const TimeModel& tm_;
  const RunOptions& opts_;
  BackwardPlan plan_;

  mem::Arena arena_;
  mem::HostPool host_;
  std::priority_queue<FreeEvent, std::vector<FreeEvent>, FreeEventLater>
      pending_;

  std::vector<ValueState> states_;
  std::vector<std::optional<mem::Offset>> grad_dev_;
  std::vector<QueueEntry> queue_;
  std::size_t next_q_ = 0;
  std::vector<IssuedPrefetch> issued_;
  std::vector<std::vector<ValueId>> values_by_last_use_;
  std::vector<std::vector<ValueId>> grad_arena_free_by_step_;
  std::vector<std::vector<ValueId>> grad_backend_free_by_step_;
  std::vector<ValueId> pins_;

  double t_comp_ = 0.0;
  double t_d2h_ = 0.0;
  double t_h2d_ = 0.0;
  int current_step_ = 0;
  bool has_fixed_schedule_ = false;

  std::optional<exec::OpStreamBuilder> xb_;
  std::vector<ValueId> touched_scratch_;

  RunResult result_;
};

}  // namespace

Runtime::Runtime(const Graph& graph, const std::vector<BwdStep>& tape,
                 const cost::MachineConfig& machine,
                 const TimeModel& time_model)
    : graph_(graph), tape_(tape), machine_(machine), time_model_(time_model) {
  POOCH_CHECK_MSG(static_cast<int>(tape.size()) == graph.num_nodes(),
                  "tape does not match graph");
}

RunResult Runtime::run(const Classification& classes,
                       const RunOptions& options) const {
  // Numerics follow the schedule, never drive it: with a backend, export
  // the stream, and replay it only once the run has completed.
  exec::OpStream local;
  RunOptions scheduling = options;
  if (options.data && !options.export_stream) scheduling.export_stream = &local;
  RunResult r;
  try {
    Exec exec(graph_, tape_, machine_, time_model_, classes, scheduling);
    try {
      r = exec.run();
    } catch (const OomUnwind& oom) {
      r = exec.fail(oom.what);
    }
  } catch (const OomUnwind& oom) {
    // Construction-time failure (persistent pool does not fit).
    r.oom = true;
    r.failure = oom.what;
  }
  if (r.ok && options.data) options.data->replay(*scheduling.export_stream);
  return r;
}

}  // namespace pooch::sim
