#include "checks.hpp"

#include <cstring>
#include <vector>

namespace perfbench {

void Checker::fail(const std::string& why) {
  if (failures_++ == 0) first_failure_ = why;
}

void Checker::delivery(std::uint64_t index, const Delivery& d) {
  bool done = d.recv_done;
  if (inject_ == Inject::kMissingDelivery && !injected_) {
    injected_ = true;
    done = false;
  }
  if (!done) {
    ++failed_messages_;
    fail("message " + std::to_string(index) + ": receive never completed");
    return;
  }
  if (d.bytes_received != d.len) {
    fail("message " + std::to_string(index) + ": " + std::to_string(d.bytes_received) +
         " bytes landed, " + std::to_string(d.len) + " sent");
    return;
  }
  if (d.complete < d.due) {
    fail("message " + std::to_string(index) + ": completed before it was due");
    return;
  }
  const std::uint8_t* got = d.received;
  std::vector<std::uint8_t> flipped;
  if (inject_ == Inject::kFlipByte && !injected_ && d.len > 0) {
    injected_ = true;
    flipped.assign(d.received, d.received + d.len);
    flipped[d.len / 2] ^= 0x01;
    got = flipped.data();
  }
  if (std::memcmp(got, d.expected, d.len) != 0) {
    fail("message " + std::to_string(index) + ": payload differs from the sender's pattern");
  }
}

void Checker::sends_done(std::uint64_t not_done) {
  if (not_done != 0) fail(std::to_string(not_done) + " sends never completed");
}

void Checker::latency_floor(std::uint64_t index, rails::SimDuration latency,
                            rails::SimDuration floor) {
  if (latency < floor) {
    fail("message " + std::to_string(index) + ": latency " + std::to_string(latency) +
         " ns below its route's wire latency " + std::to_string(floor) + " ns");
  }
}

void Checker::rail_bytes(std::uint64_t posted, std::uint64_t delivered,
                         std::uint64_t generated, std::uint64_t framing,
                         std::uint64_t reposted_segments) {
  const std::uint64_t expected = generated + framing;
  if (posted != delivered) {
    fail("engines posted " + std::to_string(posted) + " bytes, fabric delivered " +
         std::to_string(delivered));
  } else if (posted < expected || (reposted_segments == 0 && posted != expected)) {
    fail("engines posted " + std::to_string(posted) + " bytes for " +
         std::to_string(generated) + " generated + " + std::to_string(framing) +
         " framing with " + std::to_string(reposted_segments) + " re-posted segments");
  }
}

void Checker::goodput(double mbps, double bound_mbps) {
  if (inject_ == Inject::kGoodput && !injected_) {
    injected_ = true;
    mbps = 2.0 * bound_mbps;
  }
  if (!(mbps > 0.0) || mbps > bound_mbps) {
    fail("goodput " + std::to_string(mbps) + " MB/s outside (0, " +
         std::to_string(bound_mbps) + "] MB/s");
  }
}

void Checker::forwarded(std::uint64_t forwarded, std::uint64_t floor) {
  if (forwarded < floor) {
    fail(std::to_string(forwarded) + " forwarded segments, routes need at least " +
         std::to_string(floor));
  }
}

void Checker::replay(std::uint64_t fingerprint, std::uint64_t reference) {
  if (fingerprint != reference) fail("a pass did not replay the first pass exactly");
}

Inject parse_inject(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "none") return Inject::kNone;
  if (name == "flip-byte") return Inject::kFlipByte;
  if (name == "missing-delivery") return Inject::kMissingDelivery;
  if (name == "goodput") return Inject::kGoodput;
  *ok = false;
  return Inject::kNone;
}

}  // namespace perfbench
