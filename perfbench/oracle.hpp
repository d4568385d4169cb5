// Inputs and reference answers the benchmark computes without the
// program: a seeded packet generator with an O(1) rule pick, the fresh
// rules the churn phase edits in, and a first-match scan over rule boxes.
#pragma once

#include <cstdint>
#include <vector>

#include "packet/header.hpp"
#include "rules/rule.hpp"

namespace perfbench {

using pclass::PacketHeader;
using pclass::Rule;
using pclass::RuleId;

/// SplitMix64: small, seedable, and the same on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound) for bound >= 1 (bias below 2^-32 for the
  /// bounds used here, which never exceed 2^32).
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  /// Uniform in the inclusive range [lo, hi].
  std::uint64_t in(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

inline constexpr RuleId kUniform = 0xffffffffu;

/// A packet trace plus, per packet, the rule it was drawn inside
/// (kUniform for uniformly drawn headers).
struct Packets {
  std::vector<PacketHeader> headers;
  std::vector<RuleId> source;
};

inline PacketHeader point_in(const Rule& r, Rng& rng) {
  const auto& d = r.box.dims;
  PacketHeader h;
  h.sip = static_cast<std::uint32_t>(rng.in(d[0].lo, d[0].hi));
  h.dip = static_cast<std::uint32_t>(rng.in(d[1].lo, d[1].hi));
  h.sport = static_cast<std::uint16_t>(rng.in(d[2].lo, d[2].hi));
  h.dport = static_cast<std::uint16_t>(rng.in(d[3].lo, d[3].hi));
  h.proto = static_cast<std::uint8_t>(rng.in(d[4].lo, d[4].hi));
  return h;
}

/// `count` packets: `directed_pct` percent drawn inside a uniformly chosen
/// rule (an O(1) pick), the rest uniform over the 104-bit header space.
inline Packets make_packets(const std::vector<Rule>& rules, std::size_t count,
                            unsigned directed_pct, std::uint64_t seed) {
  Rng rng(seed);
  Packets p;
  p.headers.reserve(count);
  p.source.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.below(100) < directed_pct) {
      const RuleId r = static_cast<RuleId>(rng.below(rules.size()));
      p.headers.push_back(point_in(rules[r], rng));
      p.source.push_back(r);
    } else {
      const std::uint64_t a = rng.next();
      const std::uint64_t b = rng.next();
      PacketHeader h;
      h.sip = static_cast<std::uint32_t>(a);
      h.dip = static_cast<std::uint32_t>(a >> 32);
      h.sport = static_cast<std::uint16_t>(b);
      h.dport = static_cast<std::uint16_t>(b >> 16);
      h.proto = static_cast<std::uint8_t>(b >> 32);
      p.headers.push_back(h);
      p.source.push_back(kUniform);
    }
  }
  return p;
}

/// A specific rule (/24 source, /28 destination, one well-known
/// destination port, TCP or UDP) of the kind a live policy edit adds.
inline Rule fresh_rule(Rng& rng) {
  const std::uint32_t sip = static_cast<std::uint32_t>(rng.next());
  const std::uint32_t dip = static_cast<std::uint32_t>(rng.next());
  const std::uint16_t dport = static_cast<std::uint16_t>(rng.below(1024));
  const std::uint8_t proto = rng.below(2) == 0 ? 6 : 17;
  return Rule::make(sip & 0xffffff00u, 24, dip & 0xfffffff0u, 28, 0, 65535,
                    dport, dport, proto);
}

inline bool box_contains(const Rule& r, const PacketHeader& h) {
  const std::uint64_t v[5] = {h.sip, h.dip, h.sport, h.dport, h.proto};
  for (int d = 0; d < 5; ++d) {
    if (v[d] < r.box.dims[d].lo || v[d] > r.box.dims[d].hi) return false;
  }
  return true;
}

/// The reference answer: index of the first rule whose box holds `h`.
inline RuleId first_match(const std::vector<Rule>& rules,
                          const PacketHeader& h) {
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (box_contains(rules[i], h)) return static_cast<RuleId>(i);
  }
  return pclass::kNoMatch;
}

}  // namespace perfbench
