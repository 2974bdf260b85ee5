// Output checks. Each compares what the library delivered against the
// benchmark's own computation (the seeded payload, the generated byte total,
// a hop count worked out here) or against a property the method must have
// (no goodput above the rails' peak bandwidth). None compares against a
// stored copy of an earlier run's output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace perfbench {

/// Self-test faults (--inject): each makes the checker see one wrong output.
enum class Inject : std::uint8_t { kNone, kFlipByte, kMissingDelivery, kGoodput };

/// One message as the benchmark observed it on the receive side.
struct Delivery {
  bool recv_done = false;
  std::size_t len = 0;                      ///< size the benchmark generated
  std::size_t bytes_received = 0;           ///< size the engine reports landing
  const std::uint8_t* received = nullptr;   ///< receive buffer
  const std::uint8_t* expected = nullptr;   ///< the sender's seeded pattern
  rails::SimTime due = 0;
  rails::SimTime complete = 0;
};

class Checker {
 public:
  explicit Checker(Inject inject = Inject::kNone) : inject_(inject) {}

  /// The receive completed, exactly `len` bytes landed, and they equal the
  /// sender's pattern byte for byte. A receive that never completed counts
  /// as a failed message.
  void delivery(std::uint64_t index, const Delivery& d);
  /// The send side of every message of a pass reached kDone.
  void sends_done(std::uint64_t not_done);
  /// A message cannot arrive before its route's wire latency has elapsed.
  void latency_floor(std::uint64_t index, rails::SimDuration latency,
                     rails::SimDuration floor);
  /// Fault-free fabric byte conservation. Every byte the engines posted
  /// (EngineStats::payload_bytes_per_rail, summed over rails) reached the
  /// destination (Fabric::delivered_payload); the posted bytes cover what
  /// the benchmark generated plus one sub-packet header per eager piece
  /// (`framing`); and they equal exactly that sum when no segment was
  /// re-posted. A chunk re-posted after a timeout adds bytes the public
  /// counters do not break out, so with reposts only the lower bound holds.
  void rail_bytes(std::uint64_t posted, std::uint64_t delivered, std::uint64_t generated,
                  std::uint64_t framing, std::uint64_t reposted_segments);
  /// Goodput cannot exceed the peak bandwidth of the sending NICs.
  void goodput(double mbps, double bound_mbps);
  /// Every hop past the first forwards the segment at least once.
  void forwarded(std::uint64_t forwarded, std::uint64_t floor);
  /// Each pass of a run replays the same inputs on a fresh World, so its
  /// virtual-clock outcome must repeat exactly.
  void replay(std::uint64_t fingerprint, std::uint64_t reference);

  bool ok() const { return failures_ == 0; }
  std::uint64_t failed_messages() const { return failed_messages_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  void fail(const std::string& why);

  Inject inject_;
  bool injected_ = false;  ///< the self-test fault fires once per run
  std::uint64_t failures_ = 0;
  std::uint64_t failed_messages_ = 0;
  std::string first_failure_;
};

Inject parse_inject(const std::string& name, bool* ok);

}  // namespace perfbench
