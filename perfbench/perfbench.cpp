// perfbench: one process runs one workload end to end and prints
// its metrics as the last line of stdout (see README.md for the metric
// definitions, the workloads and how the numbers were made steady).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --tmpdir DIR [--trace-out PATH] [--corrupt-leaf]
//
// Every layer is called through its public functions only and timed from
// outside. Every output is checked against answers the benchmark computes
// itself (oracle.hpp); a failed check makes "correct" false.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/verify_image.hpp"
#include "audit/image_audit.hpp"
#include "engine/parallel.hpp"
#include "expcuts/dynamic.hpp"
#include "expcuts/expcuts.hpp"
#include "expcuts/flat.hpp"
#include "expcuts/image_io.hpp"
#include "npsim/sim.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "workload/scalegen.hpp"

namespace perfbench {
namespace {

using pclass::kNoMatch;
using pclass::LookupTrace;
using pclass::RuleSet;
using pclass::Trace;
namespace expcuts = pclass::expcuts;
namespace npsim = pclass::npsim;

/// W/w: 104 header bits at the paper's stride of 8 bits per level.
constexpr unsigned kDepthBound = 13;
constexpr double kMiB = 1024.0 * 1024.0;

struct WorkloadSpec {
  const char* name;
  const char* tier;          ///< scalegen tier; fixed, so image size repeats.
  std::size_t packets;       ///< Trace length.
  bool rebuild_churn;        ///< Churn edits trigger rebuilds (else delta only).
  unsigned churn_rounds;     ///< Rounds of 2 * kPoolRules edits.
  unsigned dyn_threads;      ///< Build/verify threads of the dynamic class.
};

// Every workload builds, proves and serves one static image and runs a
// churn phase on a DynamicExpCutsClassifier over the same rules. On the two
// lookup workloads the churn stays on the delta path. update-churn starts
// with the dynamic classifier (its setup), and its edits trigger verified
// rebuilds that block two open-loop readers; its latency is theirs.
constexpr WorkloadSpec kWorkloads[] = {
    {"l3-lookup", "CR-12k", 1000000, false, 96, 4},
    {"dram-setup", "CR-50k", 1000000, false, 96, 4},
    {"update-churn", "FW-12k", 250000, true, 4, 2},
};

constexpr std::size_t kLatencyChunk = 20000;  ///< Scalar lookups per cycle.
constexpr unsigned kPoolRules = 8;        ///< Rules inserted per churn round.
constexpr unsigned kRebuildThreshold = 16;  ///< DynamicExpCuts default.
constexpr double kReaderRate = 20000.0;   ///< Lookups/s offered per reader.
constexpr unsigned kReaders = 2;
constexpr std::size_t kNpsimSlice = 32768;
/// Writer idle time after each rebuild round. A rebuild blocks both
/// readers for its whole length; the pause lets them work off that backlog
/// (well under 0.2 s at the offered rate), so reader latency reflects one
/// rebuild instead of a queue that grows for the whole run.
constexpr double kRoundPauseS = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmpdir = ".";
  std::string trace_out;
  bool corrupt_leaf = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void fail(const std::string& what) {
    correct = false;
    if (++errors <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

double max_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / kMiB;
}

/// A fixed pointer chase over a buffer the size of the image: one
/// dependent load per step, a single cycle through every cache line in a
/// fixed shuffled order. It measures the host, not the program.
class MemProbe {
 public:
  explicit MemProbe(std::size_t bytes)
      : lines_(std::max<std::size_t>(bytes / 64, 1024)), next_(lines_ * 16) {
    std::vector<std::uint32_t> order(lines_);
    for (std::size_t i = 0; i < lines_; ++i) order[i] = static_cast<std::uint32_t>(i);
    Rng rng(0x6d656d70726f6265ULL);
    for (std::size_t i = lines_ - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    for (std::size_t i = 0; i < lines_; ++i) {
      next_[std::size_t{order[i]} * 16] = order[(i + 1) % lines_];
    }
  }
  double ns_per_step(std::size_t steps) {
    std::uint32_t at = pos_;
    const std::int64_t t0 = now_ns();
    for (std::size_t s = 0; s < steps; ++s) at = next_[std::size_t{at} * 16];
    const std::int64_t t1 = now_ns();
    pos_ = at;
    return static_cast<double>(t1 - t0) / static_cast<double>(steps);
  }

 private:
  std::size_t lines_;
  std::vector<std::uint32_t> next_;
  std::uint32_t pos_ = 0;
};

struct Bench {
  Args args;
  const WorkloadSpec& spec;
  Tracer tracer;
  Report rep;
  RuleSet rules;  ///< The rule list every classifier is first built over.
  Packets pk;
  Trace trace;

  Bench(Args a, const WorkloadSpec& s)
      : args(std::move(a)), spec(s), tracer(args.trace) {}

  /// Checks every answer against properties of first-match search and a
  /// seeded sample against the benchmark's own scan over `list`.
  void check_answers(const std::vector<RuleId>& got,
                     const std::vector<Rule>& list, const char* what) {
    Span s(tracer, "check.answers");
    std::size_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const RuleId r = got[i];
      const bool ok = r != kNoMatch && r < list.size() &&
                      box_contains(list[r], pk.headers[i]) &&
                      (pk.source[i] == kUniform || r <= pk.source[i]);
      if (!ok && bad++ == 0) {
        rep.fail(std::string(what) + ": packet " + std::to_string(i) +
                 " answered " + std::to_string(r) +
                 " (no match, outside the rule, or after its source rule)");
      }
    }
    Rng rng(args.seed ^ 0x7363616eULL);
    const std::size_t sample =
        std::min(got.size(), std::max<std::size_t>(1000, 50000000 / list.size()));
    for (std::size_t k = 0; k < sample; ++k) {
      const std::size_t i = rng.below(got.size());
      const RuleId ref = first_match(list, pk.headers[i]);
      if (got[i] != ref && bad++ == 0) {
        rep.fail(std::string(what) + ": packet " + std::to_string(i) +
                 " answered " + std::to_string(got[i]) + ", first match is " +
                 std::to_string(ref));
      }
    }
  }

  void expect_same(const std::vector<RuleId>& got,
                   const std::vector<RuleId>& ref, const char* path) {
    if (got.size() != ref.size()) {
      rep.fail(std::string(path) + ": answer count differs");
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] != ref[i]) {
        rep.fail(std::string(path) + " disagrees with scalar classify at packet " +
                 std::to_string(i) + ": " + std::to_string(got[i]) + " vs " +
                 std::to_string(ref[i]));
        return;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Static chain: build -> save -> map -> structural audit -> semantic verify.

struct StaticChain {
  std::unique_ptr<expcuts::ExpCutsClassifier> cls;
  std::optional<expcuts::LoadedImage> img;
  std::string path;
  double setup_s = 0, build_rss_mib = 0;
  std::uint64_t nodes = 0, image_bytes = 0;

  ~StaticChain() {
    img.reset();
    if (!path.empty()) ::unlink(path.c_str());
  }
};

std::unique_ptr<StaticChain> static_chain(Bench& b) {
  auto c = std::make_unique<StaticChain>();
  c->path = b.args.tmpdir + "/" + b.spec.name + ".xpc";
  Span setup(b.tracer, "setup.static_chain");
  expcuts::Config cfg;
  cfg.build_threads = 4;
  {
    Span s(b.tracer, "expcuts.ExpCutsClassifier");
    c->cls = std::make_unique<expcuts::ExpCutsClassifier>(b.rules, cfg);
  }
  c->build_rss_mib = max_rss_mib();
  c->nodes = c->cls->stats().node_count;
  {
    Span s(b.tracer, "image_io.save_image_file");
    expcuts::save_image_file(c->path, *c->cls);
  }
  {
    Span s(b.tracer, "image_io.map_image_file");
    c->img.emplace(expcuts::map_image_file(c->path, /*strict=*/false));
  }
  c->image_bytes = c->img->image.bytes();
  {
    Span s(b.tracer, "audit.audit_flat_image");
    pclass::audit::AuditOptions opts;
    opts.rule_count = static_cast<std::uint32_t>(b.rules.size());
    const pclass::audit::AuditReport r =
        pclass::audit::audit_flat_image(c->img->image, kDepthBound, opts);
    s.stop();
    b.rep.expect(r.ok(), "structural audit: " + r.summary());
  }
  {
    Span s(b.tracer, "analysis.verify_flat_image");
    pclass::analysis::SemanticOptions opts;
    opts.threads = 4;
    const pclass::analysis::SemanticReport r = pclass::analysis::verify_flat_image(
        c->img->image, c->img->schedule, b.rules, opts);
    s.stop();
    b.rep.expect(r.ok(), "semantic verification: " + r.report.summary());
  }
  c->setup_s = setup.stop();
  return c;
}

/// Serves a copy of the mapped image with one leaf id changed, rebuilt
/// through the public words constructor: the checks must catch it.
void corrupt_one_leaf(Bench& b, StaticChain& c) {
  const expcuts::FlatImage& img = c.img->image;
  std::vector<expcuts::ExplainStep> steps;
  img.lookup_explained(b.pk.headers[0], c.img->schedule, steps);
  if (steps.empty()) throw std::runtime_error("corrupt-leaf: root is a leaf");
  const expcuts::ExplainStep& last = steps.back();
  const RuleId was = expcuts::leaf_rule(last.child);
  const RuleId now = was + 1 < b.rules.size() ? was + 1 : was - 1;
  std::vector<std::uint32_t> words(img.words().begin(), img.words().end());
  words[last.ptr_off] = expcuts::make_leaf(now);
  std::fprintf(stderr, "corrupt-leaf: word %u leaf %u -> %u\n", last.ptr_off,
               was, now);
  c.img->image = expcuts::FlatImage(std::move(words), img.root_ptr(),
                                    img.cpa_sub_log2(), img.stride(),
                                    img.aggregated(), img.layout_version());
}

// ---------------------------------------------------------------------------
// Lookup phase: reps of every lookup path, interleaved so a slow stretch
// of the host hits all of them alike; medians over the reps.

struct LookupResult {
  std::vector<double> mpps_1t, mpps_2t, mpps_4t, mpps_mapped, probe_ns;
  std::vector<double> lat_us, mapped_lat_us;
  double levels_per_pkt = 0;
  std::uint64_t lookups = 0;
};

LookupResult lookup_phase(Bench& b, const pclass::Classifier& cls,
                          const expcuts::LoadedImage* mapped,
                          const std::vector<RuleId>& expect, double seconds,
                          std::size_t image_bytes) {
  Span phase(b.tracer, "phase.lookup");
  LookupResult r;
  MemProbe probe(image_bytes);
  const std::size_t n = b.trace.size();
  const pclass::PacketHeader* h = b.trace.packets().data();
  std::vector<RuleId> out(n);
  pclass::BatchLookupStats stats;
  const std::size_t chunk = std::min(kLatencyChunk, n);
  const std::size_t mapped_chunk = chunk / 4;
  std::size_t cursor = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  auto mpps = [n](double s) { return static_cast<double>(n) / s / 1e6; };
  // The first cycle warms caches, TLBs and the mapped pages; its samples
  // are dropped.
  for (int cycle = 0; cycle == 0 || now_ns() < end; ++cycle) {
    if (cycle == 1) {
      const std::uint64_t warm = r.lookups;
      r = LookupResult{};
      r.lookups = warm;
      stats = pclass::BatchLookupStats{};
    }
    {
      Span s(b.tracer, "classify_batch.1t");
      cls.classify_batch(h, out.data(), n, &stats);
      r.mpps_1t.push_back(mpps(s.stop(n)));
    }
    b.expect_same(out, expect, "classify_batch");
    for (unsigned threads : {4u, 2u}) {
      Span s(b.tracer, threads == 4 ? "engine.classify_parallel.4t"
                                    : "engine.classify_parallel.2t");
      const pclass::ParallelRunResult pr = pclass::classify_parallel(cls, b.trace, threads);
      (threads == 4 ? r.mpps_4t : r.mpps_2t).push_back(mpps(s.stop(n)));
      b.expect_same(pr.results, expect, "classify_parallel");
    }
    if (mapped != nullptr) {
      Span s(b.tracer, "flat.mapped.lookup_batch");
      mapped->image.lookup_batch(h, out.data(), n, mapped->schedule);
      r.mpps_mapped.push_back(mpps(s.stop(n)));
      b.expect_same(out, expect, "mapped lookup_batch");
    }
    {
      Span s(b.tracer, "classify.timed_alone");
      for (std::size_t k = 0; k < chunk; ++k) {
        const std::size_t i = (cursor + k) % n;
        const std::int64_t t0 = now_ns();
        const RuleId id = cls.classify(h[i]);
        const std::int64_t t1 = now_ns();
        r.lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        if (id != expect[i]) b.rep.fail("scalar classify changed its answer");
      }
      s.stop(chunk);
    }
    if (mapped != nullptr) {
      Span s(b.tracer, "flat.mapped.classify.timed_alone");
      for (std::size_t k = 0; k < mapped_chunk; ++k) {
        const std::size_t i = (cursor + k) % n;
        const std::int64_t t0 = now_ns();
        const RuleId id = mapped->classify(h[i]);
        const std::int64_t t1 = now_ns();
        r.mapped_lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        if (id != expect[i]) b.rep.fail("mapped classify disagrees with scalar classify");
      }
      s.stop(mapped_chunk);
    }
    cursor = (cursor + chunk) % n;
    {
      Span s(b.tracer, "host.pointer_chase");
      r.probe_ns.push_back(probe.ns_per_step(100000));
    }
    r.lookups += 3 * n + chunk + (mapped != nullptr ? n + mapped_chunk : 0);
  }
  r.levels_per_pkt = stats.mean_levels();
  b.rep.attempted += r.lookups;
  return r;
}

// ---------------------------------------------------------------------------
// NP simulation of the served structure on a fixed slice of the trace.

npsim::SimResult np_phase(Bench& b, const pclass::Classifier& cls,
                          const std::vector<RuleId>& expect) {
  Span phase(b.tracer, "phase.npsim");
  const std::size_t n = std::min(kNpsimSlice, b.trace.size());
  const Trace slice(std::vector<pclass::PacketHeader>(
      b.trace.packets().begin(), b.trace.packets().begin() + static_cast<std::ptrdiff_t>(n)));
  std::vector<LookupTrace> traces;
  {
    Span s(b.tracer, "npsim.collect_traces");
    traces = npsim::collect_traces(cls, slice);
  }
  npsim::SimConfig cfg;  // Paper standard: 9 MEs, 71 threads, 4 channels.
  cfg.npu = npsim::NpuConfig::ixp2850();
  cfg.placement = npsim::Placement::headroom_proportional(
      kDepthBound, cfg.npu.sram_headroom, cfg.npu.sram_channels);
  cfg.classify_mes = 9;
  cfg.threads = 71;
  npsim::SimResult res;
  {
    Span s(b.tracer, "npsim.simulate");
    res = npsim::simulate(traces, cfg);
  }
  // The benchmark's own traced walk: answers, depth bound, word total.
  Span s(b.tracer, "check.traced");
  std::uint64_t words = 0;
  std::size_t deep = 0;
  for (std::size_t i = 0; i < n; ++i) {
    LookupTrace t;
    const RuleId id = cls.classify_traced(slice[i], t);
    if (id != expect[i]) b.rep.fail("classify_traced disagrees at packet " + std::to_string(i));
    unsigned levels = 0;
    for (std::size_t k = 0; k < t.accesses.size(); ++k) {
      if (k == 0 || t.accesses[k].level != t.accesses[k - 1].level) ++levels;
    }
    if (levels > kDepthBound) ++deep;
    words += t.total_words();
  }
  b.rep.expect(deep == 0, std::to_string(deep) + " traced lookups exceed " +
                              std::to_string(kDepthBound) + " levels");
  std::uint64_t sim_words = 0;
  for (const npsim::ChannelStats& c : res.sram) sim_words += c.words;
  b.rep.expect(sim_words == words, "npsim SRAM words " + std::to_string(sim_words) +
                                       " != traced words " + std::to_string(words));
  b.rep.expect(res.packets == n, "npsim simulated " + std::to_string(res.packets) +
                                     " of " + std::to_string(n) + " packets");
  b.rep.attempted += n;
  return res;
}

// ---------------------------------------------------------------------------
// Churn: one writer applies seeded edits while two readers classify
// open-loop; a mirror of the rule list checks every edit.

struct ReaderOut {
  std::vector<double> lat_us;  ///< From each lookup's due time.
  double max_late_s = 0;       ///< Latest start behind schedule.
  std::uint64_t lookups = 0, no_match = 0;
  std::int64_t start = 0, end = 0;
};

void reader_loop(const expcuts::DynamicExpCutsClassifier& dyn,
                 const std::vector<pclass::PacketHeader>& hs, std::size_t offset,
                 std::int64_t t0, const std::atomic<std::int64_t>& stop_at,
                 ReaderOut& out) {
  out.start = now_ns();
  const double gap_ns = 1e9 / kReaderRate;
  for (std::uint64_t k = 0;; ++k) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(static_cast<double>(k) * gap_ns);
    std::int64_t t = now_ns();
    while (t < due) {
      const std::int64_t stop = stop_at.load(std::memory_order_acquire);
      if (stop != 0 && due >= stop) break;
      t = now_ns();
    }
    const std::int64_t stop = stop_at.load(std::memory_order_acquire);
    if (stop != 0 && due >= stop) break;
    const RuleId id = dyn.classify(hs[(offset + k) % hs.size()]);
    const std::int64_t done = now_ns();
    out.lat_us.push_back(static_cast<double>(done - due) * 1e-3);
    out.max_late_s = std::max(out.max_late_s, static_cast<double>(t - due) * 1e-9);
    ++out.lookups;
    if (id == kNoMatch) ++out.no_match;
  }
  out.end = now_ns();
}

/// The reader threads of one churn phase; stopped and joined on every
/// exit path, exceptions included.
struct Readers {
  std::atomic<std::int64_t> stop_at{0};
  std::vector<ReaderOut> outs;
  std::vector<std::thread> threads;

  Readers(const expcuts::DynamicExpCutsClassifier& dyn,
          const std::vector<pclass::PacketHeader>& hs)
      : outs(kReaders) {
    const std::int64_t t0 = now_ns();
    for (unsigned k = 0; k < kReaders; ++k) {
      threads.emplace_back(reader_loop, std::cref(dyn), std::cref(hs),
                           k * (hs.size() / kReaders), t0, std::cref(stop_at),
                           std::ref(outs[k]));
    }
  }
  ~Readers() { stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void stop() {
    if (stop_at.load() == 0) stop_at.store(now_ns(), std::memory_order_release);
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

struct ChurnResult {
  std::uint64_t edits = 0;
  std::vector<double> round_rate;    ///< Edits per second inside insert/erase.
  std::vector<double> rebuild_s;     ///< Edits that triggered a rebuild.
  std::vector<double> update_us;     ///< The other edits.
  std::vector<double> reader_lat_us;
  double late_s = 0;
  std::uint64_t reader_lookups = 0;
  unsigned rebuilds = 0;
};

struct Op {
  bool insert;
  unsigned rule;  ///< Index into the flattened pools.
};

ChurnResult churn_phase(Bench& b, expcuts::DynamicExpCutsClassifier& dyn,
                        std::vector<Rule>& mirror,
                        const std::vector<Rule>& pool, Rng& rng) {
  Span phase(b.tracer, "phase.churn");
  ChurnResult r;
  Readers readers(dyn, b.pk.headers);
  std::size_t cursor = 0;
  auto check_mirror = [&] {
    if (dyn.rules().size() != mirror.size()) {
      b.rep.fail("dynamic rule count " + std::to_string(dyn.rules().size()) +
                 " != mirror " + std::to_string(mirror.size()));
    }
    std::vector<pclass::PacketHeader> probe;
    for (unsigned k = 0; k < 8; ++k) {
      probe.push_back(b.pk.headers[cursor++ % b.pk.headers.size()]);
    }
    for (const Rule& p : pool) {
      if (std::find(mirror.begin(), mirror.end(), p) != mirror.end()) {
        probe.push_back(point_in(p, rng));
      }
    }
    for (const pclass::PacketHeader& h : probe) {
      const RuleId got = dyn.classify(h);
      const RuleId ref = first_match(mirror, h);
      if (got != ref) {
        b.rep.fail("after edit " + std::to_string(r.edits) + ": dynamic answered " +
                   std::to_string(got) + ", mirror first match " + std::to_string(ref));
      }
    }
  };
  double round_s = 0;
  auto apply = [&](const Op& op) {
    const unsigned before = dyn.rebuild_count();
    double s;
    if (op.insert) {
      const std::size_t pos = rng.below(mirror.size());  // Before the catch-all.
      Span sp(b.tracer, "dynamic.insert");
      dyn.insert(pool[op.rule], pos);
      s = sp.stop();
      mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(pos), pool[op.rule]);
    } else {
      const auto it = std::find(mirror.begin(), mirror.end(), pool[op.rule]);
      const std::size_t pos = static_cast<std::size_t>(it - mirror.begin());
      Span sp(b.tracer, "dynamic.erase");
      dyn.erase(pos);
      s = sp.stop();
      mirror.erase(it);
    }
    if (dyn.rebuild_count() != before) {
      r.rebuild_s.push_back(s);
    } else {
      r.update_us.push_back(s * 1e6);
    }
    round_s += s;
    ++r.edits;
    check_mirror();
  };
  for (unsigned round = 0;; ++round) {
    // A round is 2*kPoolRules edits in a seeded order.
    std::vector<Op> ops;
    if (!b.spec.rebuild_churn) {
      // Insert the pool and erase it again: pending edits return to zero,
      // so no round reaches the rebuild threshold.
      std::vector<unsigned> slots(2 * kPoolRules);
      for (unsigned i = 0; i < slots.size(); ++i) slots[i] = i;
      for (std::size_t i = slots.size() - 1; i > 0; --i) std::swap(slots[i], slots[rng.below(i + 1)]);
      ops.resize(slots.size());
      for (unsigned i = 0; i < kPoolRules; ++i) {
        std::size_t a = slots[i], e = slots[kPoolRules + i];
        if (e < a) std::swap(a, e);
        ops[a] = {true, i};
        ops[e] = {false, i};
      }
    } else {
      // Insert one half of the pool and erase the other, which the last
      // rebuild folded into the snapshot: every edit adds one pending
      // update, so the round's last edit triggers exactly one rebuild.
      const unsigned in = (round % 2) * kPoolRules, out = kPoolRules - in;
      for (unsigned i = 0; i < kPoolRules; ++i) {
        ops.push_back({true, in + i});
        ops.push_back({false, out + i});
      }
      for (std::size_t i = ops.size() - 1; i > 0; --i) std::swap(ops[i], ops[rng.below(i + 1)]);
    }
    round_s = 0;
    for (const Op& op : ops) apply(op);
    r.round_rate.push_back(static_cast<double>(ops.size()) / round_s);
    if (b.spec.rebuild_churn) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kRoundPauseS));
    }
    if (round + 1 >= b.spec.churn_rounds) break;
  }
  readers.stop();
  const std::size_t want = b.spec.rebuild_churn ? b.spec.churn_rounds : 0;
  b.rep.expect(r.rebuild_s.size() == want,
               std::to_string(r.rebuild_s.size()) + " edits triggered a rebuild, expected " +
                   std::to_string(want));
  for (const ReaderOut& o : readers.outs) {
    b.tracer.add("dynamic.reader", o.start, o.end, o.lookups);
    r.reader_lat_us.insert(r.reader_lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    r.late_s = std::max(r.late_s, o.max_late_s);
    r.reader_lookups += o.lookups;
    b.rep.expect(o.no_match == 0, "reader got no match with the catch-all in place");
  }
  r.rebuilds = dyn.rebuild_count();
  b.rep.attempted += r.edits + r.reader_lookups;
  return r;
}

// ---------------------------------------------------------------------------

std::vector<Rule> make_pool(Rng& rng, unsigned count) {
  std::vector<Rule> pool;
  while (pool.size() < count) {
    const Rule r = fresh_rule(rng);
    if (std::find(pool.begin(), pool.end(), r) == pool.end()) pool.push_back(r);
  }
  return pool;
}

std::vector<RuleId> scalar_pass(Bench& b, const pclass::Classifier& cls) {
  Span s(b.tracer, "check.scalar_pass");
  std::vector<RuleId> out(b.trace.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = cls.classify(b.trace[i]);
  return out;
}

void emit_layers(Bench& b, const StaticChain& c, const LookupResult& serve,
                 const npsim::SimResult& np,
                 const ChurnResult& ch, double ctor_s) {
  auto L = [&](const char* name, double v, const char* unit) {
    b.rep.per_layer.push_back({name, v, unit});
  };
  L("expcuts.build_s", b.tracer.total_s("expcuts.ExpCutsClassifier"), "s");
  L("expcuts.build_rss_mb", c.build_rss_mib, "MiB");
  L("expcuts.nodes", static_cast<double>(c.nodes), "count");
  L("image_io.save_s", b.tracer.total_s("image_io.save_image_file"), "s");
  L("image_io.map_s", b.tracer.total_s("image_io.map_image_file"), "s");
  L("audit.structural_s", b.tracer.total_s("audit.audit_flat_image"), "s");
  L("analysis.semantic_s", b.tracer.total_s("analysis.verify_flat_image"), "s");
  L("flat.levels_per_pkt", serve.levels_per_pkt, "levels/pkt");
  L("flat.mapped_mpps_1t", median(serve.mpps_mapped), "Mpps");
  L("flat.mapped_p50_us", median(serve.mapped_lat_us), "us");
  std::vector<double> lat = serve.lat_us;
  L("flat.latency_p999_us", quantile(lat, 0.999), "us");
  L("engine.lookup_mpps_2t", median(serve.mpps_2t), "Mpps");
  L("engine.scaling_4t", median(serve.mpps_4t) / median(serve.mpps_1t), "x");
  L("npsim.mean_packet_cycles", np.mean_packet_cycles, "cycles");
  static const char* kUtil[] = {"npsim.sram_util_ch0", "npsim.sram_util_ch1",
                                "npsim.sram_util_ch2", "npsim.sram_util_ch3"};
  std::uint64_t stalls = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    L(kUtil[k], k < np.sram.size() ? np.sram[k].utilization : 0.0, "ratio");
    if (k < np.sram.size()) stalls += np.sram[k].fifo_stalls;
  }
  L("npsim.fifo_stalls", static_cast<double>(stalls), "count");
  std::vector<double> rebuild = ch.rebuild_s;
  rebuild.push_back(ctor_s);
  L("dynamic.rebuilds", ch.rebuilds, "count");
  L("dynamic.rebuild_s", median(rebuild), "s");
  L("dynamic.update_us", median(ch.update_us), "us");
  L("dynamic.reader_lookups", static_cast<double>(ch.reader_lookups), "count");
  std::vector<double> rl = ch.reader_lat_us;
  L("dynamic.reader_p99_us", quantile(rl, 0.99), "us");
  L("dynamic.late_s", ch.late_s, "s");
  L("host.mem_latency_ns", median(serve.probe_ns), "ns");
}

void run(Bench& b) {
  const std::int64_t t_start = now_ns();
  // Inputs: a fixed rule set, and a trace and edits drawn from --seed.
  b.rules = pclass::workload::generate_scale_ruleset(std::string(b.spec.tier));
  Rng rng(b.args.seed * 0x9e3779b97f4a7c15ULL + 0x70657266ULL);
  const std::vector<Rule> pool =
      make_pool(rng, b.spec.rebuild_churn ? 2 * kPoolRules : kPoolRules);
  std::vector<Rule> mirror = b.rules.rules();
  if (b.spec.rebuild_churn) {
    // The second half of the pool starts in the list, for round 0 to erase.
    for (unsigned i = kPoolRules; i < 2 * kPoolRules; ++i) {
      mirror.insert(mirror.begin() + static_cast<std::ptrdiff_t>(rng.below(mirror.size())),
                    pool[i]);
    }
    b.rules = RuleSet(mirror, b.rules.name());
  }
  const std::vector<Rule>& list = b.rules.rules();
  b.pk = make_packets(list, b.spec.packets, 90, b.args.seed);
  b.trace = Trace(b.pk.headers);
  std::fprintf(stderr, "inputs: %s %zu rules, %zu packets, %.2f s\n", b.spec.tier,
               b.rules.size(), b.trace.size(), (now_ns() - t_start) * 1e-9);

  expcuts::Config dcfg;
  dcfg.build_threads = b.spec.dyn_threads;
  dcfg.verify_semantics = true;
  double ctor_s = 0;
  auto make_dynamic = [&] {
    Span s(b.tracer, "dynamic.DynamicExpCutsClassifier");
    auto d = std::make_unique<expcuts::DynamicExpCutsClassifier>(b.rules, dcfg,
                                                                 kRebuildThreshold);
    ctor_s = s.stop();
    return d;
  };

  double setup_s = 0;
  ChurnResult churn;
  std::vector<RuleId> expect_dynamic;
  if (b.spec.rebuild_churn) {
    auto dyn = make_dynamic();
    setup_s = ctor_s;
    expect_dynamic = scalar_pass(b, *dyn);
    b.check_answers(expect_dynamic, list, "dynamic classify");
    churn = churn_phase(b, *dyn, mirror, pool, rng);
  }

  std::unique_ptr<StaticChain> chain = static_chain(b);
  if (!b.spec.rebuild_churn) setup_s = chain->setup_s;
  if (b.args.corrupt_leaf) corrupt_one_leaf(b, *chain);
  const std::vector<RuleId> expect = scalar_pass(b, *chain->cls);
  b.check_answers(expect, list, "scalar classify");
  if (b.spec.rebuild_churn) b.expect_same(expect_dynamic, expect, "dynamic classify");
  const LookupResult serve = lookup_phase(b, *chain->cls, &*chain->img, expect,
                                          b.args.seconds, chain->image_bytes);
  const npsim::SimResult np = np_phase(b, *chain->cls, expect);
  const double image_mib = static_cast<double>(chain->image_bytes) / kMiB;

  if (!b.spec.rebuild_churn) {
    chain->img.reset();
    chain->cls.reset();
    auto dyn = make_dynamic();
    churn = churn_phase(b, *dyn, mirror, pool, rng);
  }
  std::vector<double> lat_us =
      b.spec.rebuild_churn ? churn.reader_lat_us : serve.lat_us;

  auto E = [&](const char* name, double v, const char* unit) {
    b.rep.end_to_end.push_back({name, v, unit});
  };
  E("setup_s", setup_s, "s");
  E("peak_rss_mb", max_rss_mib(), "MiB");
  E("image_mb", image_mib, "MiB");
  E("lookup_mpps_1t", median(serve.mpps_1t), "Mpps");
  E("lookup_mpps_4t", median(serve.mpps_4t), "Mpps");
  E("latency_p50_us", quantile(lat_us, 0.50), "us");
  E("latency_p99_us", quantile(lat_us, 0.99), "us");
  E("np_gbps", np.gbps(), "Gbps");
  E("update_per_s", median(churn.round_rate), "1/s");
  emit_layers(b, *chain, serve, np, churn, ctor_s);
}

std::string render(const std::vector<Metric>& ms) {
  std::string out;
  char buf[64];
  for (const Metric& m : ms) {
    std::snprintf(buf, sizeof buf, "%.10g", m.value);
    out += (out.empty() ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return "{" + out + "}";
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--tmpdir") a.tmpdir = val();
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--corrupt-leaf") a.corrupt_leaf = true;
    else return false;
  }
  return a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                           "--seconds S --trace 0|1 --tmpdir DIR "
                           "[--trace-out PATH] [--corrupt-leaf]\n");
      return 2;
    }
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& w : kWorkloads) {
      if (args.workload == w.name) spec = &w;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    Bench b(args, *spec);
    run(b);
    // The trace file also keeps the traced run's end-to-end values, the
    // bases of the per-layer ratios and the tracing overhead on setup_s.
    if (b.tracer.enabled() && !args.trace_out.empty() &&
        !b.tracer.write_json(args.trace_out, render(b.rep.end_to_end),
                             render(b.rep.per_layer))) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
    // No operation of these workloads fails on working code; an edit or
    // build that throws ends the run without a result.
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, \"metrics\": %s}\n",
                b.rep.correct ? "true" : "false",
                static_cast<unsigned long long>(b.rep.attempted),
                render(args.trace ? b.rep.per_layer : b.rep.end_to_end).c_str());
    return b.rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
