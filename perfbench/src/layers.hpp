// Host-clock instrumentation the benchmark wraps around the library's public
// calls. Nothing here reaches inside src/: every span opens and closes in the
// benchmark's own code, around isend/irecv, EventQueue runs and (through a
// forwarding Strategy decorator) the optimizer's plan_* calls.
//
// Two clocks are kept apart on purpose:
//  * HostTimer accumulates the timed region behind sim_msgs_per_s. It runs in
//    both modes and excludes set-up and the benchmark's own checking.
//  * LayerScope spans run only in traced mode (--trace 1). Spans nest; a
//    layer's self time is its span time minus the spans opened inside it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/engine.hpp"
#include "core/strategy_iface.hpp"
#include "fabric/event_queue.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Heap allocations made by this process so far (operator new hook in
/// alloc_count.cpp).
std::uint64_t alloc_count();

enum class Layer : std::uint8_t { kSubmit, kPlan, kLoop };
inline constexpr std::size_t kLayerCount = 3;

/// Per-pass layer accounting; filled only while tracing is on.
struct LayerTotals {
  std::array<double, kLayerCount> self_s{};
  std::uint64_t submit_calls = 0;
  std::uint64_t plan_eager_calls = 0;
  std::uint64_t plan_rendezvous_calls = 0;

  LayerTotals& operator+=(const LayerTotals& o) {
    for (std::size_t l = 0; l < kLayerCount; ++l) self_s[l] += o.self_s[l];
    submit_calls += o.submit_calls;
    plan_eager_calls += o.plan_eager_calls;
    plan_rendezvous_calls += o.plan_rendezvous_calls;
    return *this;
  }
};

void set_tracing(bool on);
/// Returns the totals gathered since the last call and clears them.
LayerTotals take_layer_totals();

/// One span of `layer`; a no-op unless tracing is on.
class LayerScope {
 public:
  explicit LayerScope(Layer layer);
  ~LayerScope();
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  bool active_ = false;
};

/// Accumulates host seconds and allocations of the timed region.
class HostTimer {
 public:
  void start() {
    allocs_at_start_ = alloc_count();
    t0_ = Clock::now();
  }
  void stop() {
    seconds_ += std::chrono::duration<double>(Clock::now() - t0_).count();
    allocs_ += alloc_count() - allocs_at_start_;
  }
  double seconds() const { return seconds_; }
  std::uint64_t allocs() const { return allocs_; }

 private:
  Clock::time_point t0_{};
  double seconds_ = 0.0;
  std::uint64_t allocs_ = 0;
  std::uint64_t allocs_at_start_ = 0;
};

// -- wrapped library calls ---------------------------------------------------

rails::core::SendHandle send(rails::core::Engine& engine, rails::NodeId dst,
                             rails::Tag tag, const void* data, std::size_t len);
rails::core::RecvHandle recv(rails::core::Engine& engine, rails::NodeId src,
                             rails::Tag tag, void* data, std::size_t capacity);
/// EventQueue::run_until under a fabric.loop span.
bool run_until(rails::fabric::EventQueue& events, const std::function<bool()>& pred);
/// EventQueue::run_all under a fabric.loop span.
void run_all(rails::fabric::EventQueue& events);

/// Wraps `inner` so its plan_eager/plan_rendezvous calls open strategy.plan
/// spans. Every other member forwards unchanged, so the decision cache and
/// control-rail choice behave exactly as with `inner` installed directly.
std::unique_ptr<rails::core::Strategy> timed_strategy(
    std::unique_ptr<rails::core::Strategy> inner);

}  // namespace perfbench
