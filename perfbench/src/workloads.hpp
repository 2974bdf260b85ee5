// The benchmark's three workloads. Each runs one "pass": a fixed, seeded set
// of messages on a freshly built World. A run repeats the pass until its time
// is up, so every pass of a run replays the same inputs.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "checks.hpp"
#include "core/world.hpp"
#include "layers.hpp"

namespace perfbench {

/// Seeded inputs shared by every pass of a run.
struct Inputs {
  std::uint64_t seed = 0;
  /// Random bytes drawn from the seed. Message i carries the slice starting
  /// at payload_offset(i), so its bytes depend on the seed and on i.
  std::vector<std::uint8_t> tape;

  explicit Inputs(std::uint64_t seed);
  std::size_t payload_offset(std::uint64_t index) const;
  const std::uint8_t* payload(std::uint64_t index) const {
    return tape.data() + payload_offset(index);
  }
};

/// What one pass attempted, delivered and cost.
struct Pass {
  std::uint64_t messages = 0;       ///< messages attempted
  std::uint64_t payload_bytes = 0;  ///< bytes the benchmark generated
  /// Sub-packet header bytes of the eager sends: one header per piece the
  /// engine cut the message into (SendRequest::chunk_count).
  std::uint64_t framing_bytes = 0;
  std::vector<rails::SimDuration> latencies;  ///< due send -> receive complete
  rails::SimTime first_due = 0;
  rails::SimTime last_complete = 0;
  std::uint64_t sending_nodes = 0;  ///< nodes whose NICs carry the payload
  HostTimer timer;                  ///< library calls only
  double check_s = 0.0;             ///< the benchmark's own verification
};

/// Starts a verification span: the timed region pauses until it ends.
class CheckSpan {
 public:
  explicit CheckSpan(Pass& pass) : pass_(pass), t0_(Clock::now()) { pass_.timer.stop(); }
  ~CheckSpan() {
    pass_.check_s += std::chrono::duration<double>(Clock::now() - t0_).count();
    pass_.timer.start();
  }
  CheckSpan(const CheckSpan&) = delete;
  CheckSpan& operator=(const CheckSpan&) = delete;

 private:
  Pass& pass_;
  Clock::time_point t0_;
};

/// Runs `fn`, verification after the timed region has ended, and adds its
/// time to the pass's check time.
template <typename F>
void check_after(Pass& pass, F&& fn) {
  const auto t0 = Clock::now();
  fn();
  pass.check_s += std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  std::string_view name;
  /// World configuration (the seed only reseeds fault injection).
  rails::core::WorldConfig (*config)(std::uint64_t seed);
  /// Per-run set-up after the World exists (fault injection); may be null.
  void (*arm)(rails::core::World& world);
  /// Runs one pass; the timed region covers only calls into the library.
  void (*run)(rails::core::World& world, const Inputs& in, Checker& check, Pass& pass);
  /// True when no fault is injected, so posted bytes must equal generated.
  bool fault_free;
  /// Distinct inputs a run cycles through; virtual-clock results pool the
  /// first pass of each. More than one where a single pass's outcome swings
  /// too much with the seed.
  unsigned episodes;
};

/// Seed of episode `episode` of a run (episode 0 uses the run's seed).
std::uint64_t episode_seed(std::uint64_t seed, unsigned episode);

const Workload* find_workload(std::string_view name);

}  // namespace perfbench
