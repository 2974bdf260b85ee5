#include "layers.hpp"

#include <string>

namespace perfbench {

namespace {

struct Frame {
  Layer layer = Layer::kSubmit;
  Clock::time_point start{};
  double child_s = 0.0;  ///< time covered by spans opened inside this one
};

constexpr std::size_t kMaxDepth = 16;

bool g_tracing = false;
LayerTotals g_totals;
std::array<Frame, kMaxDepth> g_stack;
std::size_t g_depth = 0;

class TimedStrategy final : public rails::core::Strategy {
 public:
  explicit TimedStrategy(std::unique_ptr<rails::core::Strategy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  rails::core::EagerSchedule plan_eager(
      const rails::core::StrategyContext& ctx,
      std::span<const rails::core::SendRequest* const> pending) override {
    if (g_tracing) ++g_totals.plan_eager_calls;
    LayerScope span(Layer::kPlan);
    return inner_->plan_eager(ctx, pending);
  }

  rails::strategy::SplitResult plan_rendezvous(const rails::core::StrategyContext& ctx,
                                               std::size_t len) override {
    if (g_tracing) ++g_totals.plan_rendezvous_calls;
    LayerScope span(Layer::kPlan);
    return inner_->plan_rendezvous(ctx, len);
  }

  rails::RailId control_rail(const rails::core::StrategyContext& ctx) const override {
    return inner_->control_rail(ctx);
  }

  bool eager_plan_cacheable(
      const rails::core::StrategyContext& ctx,
      std::span<const rails::core::SendRequest* const> pending) const override {
    return inner_->eager_plan_cacheable(ctx, pending);
  }

 private:
  std::unique_ptr<rails::core::Strategy> inner_;
};

}  // namespace

void set_tracing(bool on) { g_tracing = on; }

LayerTotals take_layer_totals() {
  LayerTotals out = g_totals;
  g_totals = LayerTotals{};
  return out;
}

LayerScope::LayerScope(Layer layer) {
  if (!g_tracing || g_depth == kMaxDepth) return;
  active_ = true;
  g_stack[g_depth++] = Frame{layer, Clock::now(), 0.0};
}

LayerScope::~LayerScope() {
  if (!active_) return;
  const Frame frame = g_stack[--g_depth];
  const double span_s = std::chrono::duration<double>(Clock::now() - frame.start).count();
  g_totals.self_s[static_cast<std::size_t>(frame.layer)] += span_s - frame.child_s;
  if (g_depth > 0) g_stack[g_depth - 1].child_s += span_s;
}

rails::core::SendHandle send(rails::core::Engine& engine, rails::NodeId dst,
                             rails::Tag tag, const void* data, std::size_t len) {
  if (g_tracing) ++g_totals.submit_calls;
  LayerScope span(Layer::kSubmit);
  return engine.isend(dst, tag, data, len);
}

rails::core::RecvHandle recv(rails::core::Engine& engine, rails::NodeId src,
                             rails::Tag tag, void* data, std::size_t capacity) {
  if (g_tracing) ++g_totals.submit_calls;
  LayerScope span(Layer::kSubmit);
  return engine.irecv(src, tag, data, capacity);
}

bool run_until(rails::fabric::EventQueue& events, const std::function<bool()>& pred) {
  LayerScope span(Layer::kLoop);
  return events.run_until(pred);
}

void run_all(rails::fabric::EventQueue& events) {
  LayerScope span(Layer::kLoop);
  events.run_all();
}

std::unique_ptr<rails::core::Strategy> timed_strategy(
    std::unique_ptr<rails::core::Strategy> inner) {
  return std::make_unique<TimedStrategy>(std::move(inner));
}

}  // namespace perfbench
