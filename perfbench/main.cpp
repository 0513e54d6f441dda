// perfbench: one timed run of one workload, on both clocks.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--quick] [--workdir <dir>] [--spans <file>] [--list-sites]
//
// Prints one JSON object on stdout: run facts, every metric with its unit
// and sample count, and the outcome of every output check. run.py turns it
// into the benchmark's report. README.md explains the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "kernels/reference.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "nn/trainer.hpp"
#include "probe.hpp"
#include "recorder.hpp"
#include "simt/executor.hpp"
#include "simt/simd.hpp"

namespace pb = perfbench;

namespace {

using hg::AlignedVec;
using hg::half_t;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kTrain, kKernels };

struct Workload {
  const char* name;
  Kind kind;
  hg::nn::ModelKind model;
  hg::DatasetId dataset;
  int threads;       // the HALFGNN_THREADS the workload is defined at
  int chunk_epochs;  // epochs per train() call
  int ckpt_every;    // durable checkpoint period in epochs; 0 = none
  // Minimum of the median final test accuracy over a run's model seeds:
  // above chance (1/41 on reddit-sim), below the results seen at
  // chunk_epochs (see perfbench/README.md).
  double acc_floor;
};

// All HalfGNN mode, f16, hidden 64 (the TrainConfig default).
constexpr Workload kWorkloads[] = {
    {"gat-reddit-t1", Kind::kTrain, hg::nn::ModelKind::kGat,
     hg::DatasetId::kReddit, 1, 12, 0, 0.05},
    {"gin-reddit-t4", Kind::kTrain, hg::nn::ModelKind::kGin,
     hg::DatasetId::kReddit, 4, 12, 5, 0.3},
    {"kernels-kron-t2", Kind::kKernels, hg::nn::ModelKind::kGcn,
     hg::DatasetId::kKron, 2, 0, 0, 0.0},
};

constexpr int kFeat = 64;         // kernel-set feature width (Fig. 9)
constexpr int kSetupRepeats = 11;  // setup_s is the median of these
constexpr int kCrossEpochs = 3;   // epochs of the thread-count cross-check
// Model seeds a training run cycles its units through. Step time depends on
// the trajectory (the dense gemm skips zero activations), so one run
// averages over several trajectories instead of timing only one.
constexpr int kSubSeeds = 5;
// Model seeds whose full-length units a run always trains, so the accuracy
// floor applies to a median of several.
constexpr int kMinAccSeeds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string workdir = ".";
  std::string spans_path;
};

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: the smallest sample with at least q of the
// samples at or below it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t beyond_percentile(std::size_t n, double q) {
  return n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// FNV-1a over the bit patterns of a value sequence.
std::uint64_t fnv1a(const std::vector<double>& v, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < std::min(count, v.size()); ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(v[i]);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
  std::size_t samples;
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // one line per failed check
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string loss_hash;
  // Accounting checks over the traced steps.
  double min_other_ms = std::numeric_limits<double>::infinity();
  double max_self_gap_ms = 0;
  std::int64_t spans_outside = 0;

  void add(const std::string& name, double value, const char* unit,
           std::size_t samples = 1) {
    metrics.push_back(Metric{name, unit, value, samples});
  }
  void fail(std::int64_t steps, std::string why) {
    failed += steps;
    failures.push_back(std::move(why));
  }
};

// ---------------------------------------------------------------------------
// Per-layer aggregation of traced spans
// ---------------------------------------------------------------------------

struct SiteTotals {
  double self_ns = 0, incl_ns = 0, calls = 0, work = 0;
};

struct LayerAgg {
  std::vector<SiteTotals> site;
  double wall_ns = 0;
  std::size_t steps = 0;
  std::vector<double> step_ms;  // traced step wall times
};

// Folds one traced segment into `agg`. `timed` lists the step indices that
// count; spans of other steps are ignored.
void accumulate(LayerAgg& agg, Report& rep, const std::vector<pb::Span>& spans,
                const std::vector<pb::Step>& steps,
                const std::vector<std::size_t>& timed) {
  agg.site.resize(pb::sites().size());
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0 && s.t1 != 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.t1 - s.t0);
    }
  }
  std::vector<char> is_timed(steps.size(), 0);
  for (std::size_t i : timed) is_timed[i] = 1;
  std::vector<double> self_in_step(steps.size(), 0.0);
  std::vector<double> roots_in_step(steps.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const pb::Span& s = spans[i];
    if (s.step < 0 || s.t1 == 0) continue;
    const auto st = static_cast<std::size_t>(s.step);
    if (st >= steps.size() || is_timed[st] == 0) continue;
    if (s.t0 < steps[st].t0 || s.t1 > steps[st].t1) {
      ++rep.spans_outside;
      continue;
    }
    const double dur = static_cast<double>(s.t1 - s.t0);
    const double self = dur - child_ns[i];
    SiteTotals& t = agg.site[static_cast<std::size_t>(s.site)];
    t.self_ns += self;
    t.incl_ns += dur;
    t.calls += 1;
    t.work += s.work;
    self_in_step[st] += self;
    if (s.parent < 0) roots_in_step[st] += dur;
  }
  for (std::size_t i : timed) {
    const double wall = static_cast<double>(steps[i].t1 - steps[i].t0);
    agg.wall_ns += wall;
    agg.step_ms.push_back(wall * 1e-6);
    ++agg.steps;
    rep.min_other_ms =
        std::min(rep.min_other_ms, (wall - self_in_step[i]) * 1e-6);
    rep.max_self_gap_ms =
        std::max(rep.max_self_gap_ms,
                 std::abs(self_in_step[i] - roots_in_step[i]) * 1e-6);
  }
}

// Names of the kernel set of kernels-kron-t2, in launch order.
constexpr const char* kKernelSet[] = {"spmm_halfgnn", "spmm_cusparse_f16",
                                      "spmm_cusparse_f32", "sddmm_halfgnn",
                                      "sddmm_dgl_f16"};

void emit_layers(Report& rep, const LayerAgg& agg) {
  const double n = agg.steps > 0 ? static_cast<double>(agg.steps) : 1.0;
  const auto k = agg.steps;
  const double wall_ms = agg.wall_ns * 1e-6 / n;
  const auto& sites = pb::sites();
  // Per-step mean of `field` summed over the sites `pick` selects.
  auto sum = [&](auto pick, double SiteTotals::*field) {
    double total = 0;
    for (std::size_t i = 0; i < sites.size() && i < agg.site.size(); ++i) {
      if (pick(sites[i])) total += agg.site[i].*field;
    }
    return total / n;
  };
  auto self_ms = [&](auto pick) { return sum(pick, &SiteTotals::self_ns) * 1e-6; };
  auto incl_ms = [&](auto pick) { return sum(pick, &SiteTotals::incl_ns) * 1e-6; };
  auto calls = [&](auto pick) { return sum(pick, &SiteTotals::calls); };
  auto work = [&](auto pick) { return sum(pick, &SiteTotals::work); };
  auto layer = [](const char* l) {
    return [l](const pb::Site& s) { return s.layer == l; };
  };
  auto named = [](std::initializer_list<const char*> names) {
    std::vector<std::string> v(names.begin(), names.end());
    return [v](const pb::Site& s) {
      return std::find(v.begin(), v.end(), s.name) != v.end();
    };
  };

  const double tensor_ms = self_ms(layer("tensor"));
  rep.add("tensor.self_ms", tensor_ms, "ms", k);
  rep.add("tensor.share", wall_ms > 0 ? tensor_ms / wall_ms : 0, "ratio", k);
  rep.add("tensor.calls", calls(layer("tensor")), "count", k);
  const auto gemm = named({"tensor.gemm"});
  const double gemm_ms = self_ms(gemm);
  rep.add("tensor.gemm.self_ms", gemm_ms, "ms", k);
  rep.add("tensor.gemm.calls", calls(gemm), "count", k);
  rep.add("tensor.gemm.gflop_per_s",
          gemm_ms > 0 ? work(gemm) / gemm_ms * 1e-6 : 0, "GFLOP/s", k);
  const auto conv = named({"tensor.to_dtype"});
  rep.add("tensor.to_dtype.self_ms", self_ms(conv), "ms", k);
  rep.add("tensor.to_dtype.bytes", work(conv), "bytes", k);
  rep.add("tensor.elementwise.self_ms",
          self_ms(named({"tensor.axpby", "tensor.add_bias_rows",
                         "tensor.relu_forward", "tensor.relu_backward",
                         "tensor.scale_rows", "tensor.colsum"})),
          "ms", k);
  rep.add("tensor.softmax_xent.self_ms", self_ms(named({"tensor.softmax_xent"})),
          "ms", k);

  const double nn_ms = self_ms(layer("nn"));
  rep.add("nn.dispatch.self_ms", nn_ms, "ms", k);
  rep.add("nn.dispatch.calls", calls(layer("nn")), "count", k);

  const double kernels_ms = self_ms(layer("kernels"));
  rep.add("kernels.self_ms", kernels_ms, "ms", k);
  rep.add("kernels.launches", calls(layer("kernels")), "count", k);
  rep.add("kernels.edge_chain.ms", incl_ms([](const pb::Site& s) {
            return s.name.rfind("kernels.edge_", 0) == 0;
          }),
          "ms", k);
  for (const char* kn : kKernelSet) {
    const std::string site = std::string("kernels.") + kn;
    rep.add(site + ".ms", incl_ms(named({site.c_str()})), "ms", k);
  }

  const double simt_ms = self_ms(layer("simt"));
  rep.add("simt.pool_ms", simt_ms, "ms", k);
  rep.add("simt.share", wall_ms > 0 ? simt_ms / wall_ms : 0, "ratio", k);
  rep.add("simt.calls", calls(layer("simt")), "count", k);
  rep.add("simt.jobs", work(layer("simt")), "count", k);

  const double ckpt_ms = self_ms(layer("ckpt"));
  rep.add("ckpt.write_ms", ckpt_ms, "ms", k);
  rep.add("ckpt.writes", calls(layer("ckpt")), "count", k);
  rep.add("ckpt.bytes", work(layer("ckpt")), "bytes", k);

  rep.add("nn.other_ms",
          wall_ms - (tensor_ms + nn_ms + kernels_ms + simt_ms + ckpt_ms), "ms",
          k);
  rep.add("trace.step_ms", wall_ms, "ms", k);
}

// Writes the traced spans as Chrome trace JSON (one tid per traced unit).
void write_spans(const std::string& path,
                 const std::vector<std::vector<pb::Span>>& units) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const auto& sites = pb::sites();
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& u : units) {
    for (const auto& s : u) origin = std::min(origin, s.t0);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (std::size_t i = 0; i < units[u].size(); ++i) {
      const pb::Span& s = units[u][i];
      if (s.t1 == 0) continue;
      const auto& site = sites[static_cast<std::size_t>(s.site)];
      out << (first ? "" : ",") << "\n{\"name\":" << json_str(site.name)
          << ",\"cat\":" << json_str(site.layer)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << u
          << ",\"ts\":" << json_num(static_cast<double>(s.t0 - origin) * 1e-3)
          << ",\"dur\":" << json_num(static_cast<double>(s.t1 - s.t0) * 1e-3)
          << ",\"args\":{\"step\":" << s.step << ",\"parent\":" << s.parent
          << ",\"work\":" << json_num(s.work) << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Unit scheduling: run units (train() calls or kernel passes) until the
// budget is spent. run_unit(unit, tracing, remaining_s) sizes the unit to the
// remaining time and returns false when no unit fits; the first `min_units`
// always run. In a traced run units alternate untraced/traced, so tracing
// overhead is measured on neighbouring units.
// ---------------------------------------------------------------------------

template <class RunUnit>
void run_units(const Args& a, int min_units, RunUnit&& run_unit) {
  const std::int64_t start = pb::now_ns();
  for (int u = 0;; ++u) {
    const double remaining =
        u < min_units ? std::numeric_limits<double>::infinity()
                      : a.seconds - ms_between(start, pb::now_ns()) * 1e-3;
    if (!run_unit(u, a.trace && u % 2 == 1, remaining)) break;
  }
}

// Host times in the order they were taken (timed steps, or set-up repeats):
// each wall time and the host-speed probe run just before it.
struct HostTimes {
  std::vector<double> wall_ms, probe_ms;

  void add(double wall, double probe) {
    wall_ms.push_back(wall);
    probe_ms.push_back(probe);
  }
  void add(const pb::Step& s) { add(ms_between(s.t0, s.t1), s.probe_ms); }

  // The wall times at the reference host speed. Each is scaled by the median
  // of the probes of its neighbours within kProbeWindow, so that one probe's
  // own noise does not reach the tail percentiles.
  std::vector<double> at_ref_speed() const {
    constexpr std::size_t kProbeWindow = 4;
    const std::size_t n = wall_ms.size();
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = i > kProbeWindow ? i - kProbeWindow : 0;
      const std::size_t hi = std::min(n, i + kProbeWindow + 1);
      const double probe = median(std::vector<double>(
          probe_ms.begin() + static_cast<std::ptrdiff_t>(lo),
          probe_ms.begin() + static_cast<std::ptrdiff_t>(hi)));
      out[i] = wall_ms[i] * pb::kProbeRefMs / probe;
    }
    return out;
  }
};

// The end-to-end metrics are at the reference host speed; the wall.* ones
// are the same statistics of the raw wall times.
void emit_host(Report& rep, const HostTimes& h, std::int64_t edges) {
  const auto n = h.wall_ms.size();
  const std::vector<double> ref_ms = h.at_ref_speed();
  auto per_s = [&](const std::vector<double>& ms) {
    double total = 0;
    for (double v : ms) total += v;
    return total > 0 ? static_cast<double>(edges) * static_cast<double>(n) /
                           (total * 1e-3)
                     : 0;
  };
  rep.add("step_ms_p50", median(ref_ms), "ms", n);
  rep.add("step_ms_p90", percentile(ref_ms, 0.9), "ms", n);
  rep.add("step_ms_p90.tail_samples",
          static_cast<double>(beyond_percentile(n, 0.9)), "count", n);
  rep.add("edges_per_s", per_s(ref_ms), "edges/s", n);
  rep.add("wall.step_ms_p50", median(h.wall_ms), "ms", n);
  rep.add("wall.step_ms_p90", percentile(h.wall_ms, 0.9), "ms", n);
  rep.add("wall.edges_per_s", per_s(h.wall_ms), "edges/s", n);
  rep.add("probe_ms", median(h.probe_ms), "ms", n);
}

void emit_setup(Report& rep, const HostTimes& h) {
  const auto n = h.wall_ms.size();
  rep.add("setup_s", median(h.at_ref_speed()) * 1e-3, "s", n);
  rep.add("wall.setup_s", median(h.wall_ms) * 1e-3, "s", n);
}

// ---------------------------------------------------------------------------
// Training workloads
// ---------------------------------------------------------------------------

// Everything about one modeled step that must repeat exactly.
struct ModeledSig {
  double sparse_ms = 0, dense_ms = 0, convert_ms = 0, dispatch_ms = 0,
         total_ms = 0;
  std::uint64_t kernels = 0, converted_bytes = 0;
  double bytes_moved = 0, lane_ops = 0;

  bool operator==(const ModeledSig&) const = default;
};

ModeledSig training_sig(const hg::CostLedger& l, const pb::ModeledTotals& m) {
  ModeledSig s;
  s.sparse_ms = l.sparse_ms;
  s.dense_ms = l.dense_ms;
  s.convert_ms = l.convert_ms;
  s.dispatch_ms = l.dispatch_ms();
  s.total_ms = l.total_ms();
  s.kernels = l.sparse_kernels + l.dense_kernels;
  s.converted_bytes = l.converted_bytes;
  s.bytes_moved = m.bytes_moved;
  s.lane_ops = m.lane_ops;
  return s;
}

void emit_modeled(Report& rep, const ModeledSig& s) {
  rep.add("modeled_step_ms", s.total_ms, "sim_ms");
  rep.add("modeled.sparse_ms", s.sparse_ms, "sim_ms");
  rep.add("modeled.dense_ms", s.dense_ms, "sim_ms");
  rep.add("modeled.convert_ms", s.convert_ms, "sim_ms");
  rep.add("modeled.dispatch_ms", s.dispatch_ms, "sim_ms");
  rep.add("modeled.kernels", static_cast<double>(s.kernels), "count");
  rep.add("modeled.converted_bytes", static_cast<double>(s.converted_bytes),
          "bytes");
  rep.add("modeled.bytes_moved", s.bytes_moved, "bytes");
  rep.add("modeled.lane_ops", s.lane_ops, "count");
}

int alt_threads(int threads) { return threads == 1 ? 2 : 1; }

// Model seed `j` of a run with seed `seed` (splitmix64).
std::uint64_t sub_seed(std::uint64_t seed, int j) {
  std::uint64_t z = seed * kSubSeeds + static_cast<std::uint64_t>(j) +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void run_training(const Workload& w, const Args& a, Report& rep) {
  namespace fs = std::filesystem;
  // Set-up: dataset generation (the whole of this workload's input prep).
  HostTimes setup;
  hg::Dataset data;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double probe = pb::probe_ms();
    const std::int64_t t0 = pb::now_ns();
    data = hg::make_dataset(w.dataset);
    setup.add(ms_between(t0, pb::now_ns()), probe);
  }
  emit_setup(rep, setup);
  rep.add("graph.make_dataset_ms", median(setup.wall_ms), "ms",
          setup.wall_ms.size());

  // Every unit but the last runs chunk_epochs; the last is cut to the time
  // left, but never below kMinEpochs.
  constexpr int kMinEpochs = 8;
  const int full_epochs = a.quick ? 4 : w.chunk_epochs;
  hg::nn::TrainConfig base = hg::nn::default_config(w.model);
  base.seed = sub_seed(a.seed, 0);
  base.profile_first_epoch = true;
  // Quick runs write every other epoch so a timed step still holds a write.
  base.checkpoint_every = a.quick ? std::min(w.ckpt_every, 2) : w.ckpt_every;

  HostTimes host;  // untraced timed steps
  LayerAgg agg;
  std::vector<std::vector<pb::Span>> traced;
  // First trajectory of each model seed; later units of a seed must repeat it.
  std::vector<std::vector<double>> ref_losses(kSubSeeds);
  ModeledSig ref_sig{};
  // Final test accuracy of each model seed's first full-length unit.
  std::vector<double> seed_acc(kSubSeeds,
                               std::numeric_limits<double>::quiet_NaN());
  double trained_s = 0;
  int trained_epochs = 0;

  const int pairs = a.trace ? 2 : 1;  // units per model seed in a row
  const int min_units = pairs * (a.quick ? 1 : kMinAccSeeds);
  run_units(a, min_units, [&](int unit, bool tracing, double left_s) {
    int epochs = full_epochs;
    if (trained_epochs > 0 && std::isfinite(left_s)) {
      const double per_epoch_s = trained_s / trained_epochs;
      epochs = std::min(epochs, static_cast<int>(left_s / per_epoch_s));
      if (epochs < std::min(kMinEpochs, full_epochs)) return false;
    }
    // A traced run pairs each traced unit with the untraced unit before it,
    // on the same model seed, so both time the same work.
    const int sub = (unit / pairs) % kSubSeeds;
    hg::nn::TrainConfig cfg = base;
    cfg.epochs = epochs;
    cfg.seed = sub_seed(a.seed, sub);
    std::string dir;
    if (w.ckpt_every > 0) {
      dir = (fs::path(a.workdir) / ("ckpt-" + std::to_string(unit))).string();
      fs::remove_all(dir);
      cfg.checkpoint_dir = dir;
    }
    pb::recorder().ckpt_dir = dir;
    pb::recorder().reset(tracing);
    const std::int64_t t0 = pb::now_ns();
    const hg::nn::TrainResult res =
        hg::nn::train(w.model, hg::nn::SystemMode::kHalfGnn, data, cfg);
    trained_s += ms_between(t0, pb::now_ns()) * 1e-3;
    trained_epochs += epochs;
    pb::Recorder& r = pb::recorder();
    r.end_step();  // close the last (partial) step so spans can be checked
    if (!dir.empty()) fs::remove_all(dir);

    // Steps: [softmax_xent of epoch i, softmax_xent of epoch i+1). The
    // first holds profiled epoch 0's backward; the last is partial.
    std::vector<std::size_t> timed;
    for (std::size_t i = 1; i + 1 < r.steps().size(); ++i) timed.push_back(i);
    std::vector<double> unit_ms;
    for (std::size_t i : timed) {
      unit_ms.push_back(ms_between(r.steps()[i].t0, r.steps()[i].t1));
    }
    if (tracing) {
      accumulate(agg, rep, r.spans(), r.steps(), timed);
      traced.push_back(r.spans());
    } else {
      for (std::size_t i : timed) host.add(r.steps()[i]);
    }
    std::fprintf(stderr,
                 "perfbench: unit %d%s: model seed %d, %d epochs, median step "
                 "%.1f ms, test_acc %.4f\n",
                 unit, tracing ? " (traced)" : "", sub, epochs, median(unit_ms),
                 res.final_test_acc);

    // Output checks. A failed whole-run check fails every epoch of the unit.
    rep.attempted += epochs;
    const std::string tag = "unit " + std::to_string(unit) + ": ";
    if (static_cast<int>(res.losses.size()) != epochs) {
      rep.fail(epochs, tag + "ran " + std::to_string(res.losses.size()) +
                           " epochs, expected " + std::to_string(epochs));
      return true;
    }
    const ModeledSig sig = training_sig(res.epoch_ledger, r.modeled());
    if (unit == 0) ref_sig = sig;
    std::vector<double>& ref = ref_losses[static_cast<std::size_t>(sub)];
    if (ref.empty()) ref = res.losses;
    // Trajectories of different lengths agree on their common prefix.
    const std::size_t common = std::min(res.losses.size(), ref.size());
    std::int64_t bad_loss = 0;
    for (double l : res.losses) bad_loss += std::isfinite(l) ? 0 : 1;
    if (res.scaler_skipped != 0) {
      rep.fail(epochs, tag + std::to_string(res.scaler_skipped) +
                           " optimizer steps skipped");
    } else if (fnv1a(res.losses, common) != fnv1a(ref, common)) {
      rep.fail(epochs, tag + "loss trajectory differs from the first unit "
                             "of its model seed");
    } else if (sig != ref_sig) {
      rep.fail(epochs, tag + "modeled epoch differs from unit 0");
    } else if (bad_loss > 0) {
      rep.fail(bad_loss, tag + std::to_string(bad_loss) +
                             " epochs with a non-finite loss");
    }
    double& acc = seed_acc[static_cast<std::size_t>(sub)];
    if (epochs == full_epochs && std::isnan(acc)) acc = res.final_test_acc;
    return true;
  });

  // Thread-count cross-check: a short run on a pool of another size must
  // reproduce the loss trajectory and the modeled epoch bit for bit.
  {
    const int cross_epochs = std::min(kCrossEpochs, full_epochs);
    hg::simt::Device dev(hg::simt::a100_spec(), alt_threads(w.threads));
    hg::simt::Stream stream(dev);
    hg::nn::TrainConfig cfg = base;
    cfg.epochs = cross_epochs;
    cfg.stream = &stream;
    cfg.checkpoint_every = 0;
    pb::recorder().ckpt_dir.clear();
    pb::recorder().reset(false);
    const hg::nn::TrainResult res =
        hg::nn::train(w.model, hg::nn::SystemMode::kHalfGnn, data, cfg);
    rep.attempted += cross_epochs;
    const auto n = static_cast<std::size_t>(cross_epochs);
    if (fnv1a(res.losses, n) != fnv1a(ref_losses[0], n) ||
        res.losses.size() != n) {
      rep.fail(cross_epochs,
               "threads " + std::to_string(alt_threads(w.threads)) +
                   ": loss trajectory differs from threads " +
                   std::to_string(w.threads));
    } else if (training_sig(res.epoch_ledger, pb::recorder().modeled()) !=
               ref_sig) {
      rep.fail(cross_epochs,
               "threads " + std::to_string(alt_threads(w.threads)) +
                   ": modeled epoch differs from threads " +
                   std::to_string(w.threads));
    }
  }

  rep.loss_hash = hex(fnv1a(ref_losses[0], ref_losses[0].size()));
  emit_host(rep, host, data.num_edges());
  emit_modeled(rep, ref_sig);
  // Some initializations stay near chance for a whole unit (one model seed
  // in 136 tried at 12 epochs of GAT), so the floor holds the median over
  // the run's model seeds. A run below it fails all its steps.
  std::vector<double> accs;
  for (double v : seed_acc) {
    if (!std::isnan(v)) accs.push_back(v);
  }
  const double test_acc = median(accs);
  if (!a.quick && !(test_acc >= w.acc_floor)) {
    rep.fail(rep.attempted - rep.failed,
             "median test_acc " + json_num(test_acc) + " of " +
                 std::to_string(accs.size()) + " model seeds below floor " +
                 json_num(w.acc_floor));
  }
  rep.add("test_acc", test_acc, "ratio", accs.size());
  if (a.trace) {
    emit_layers(rep, agg);
    rep.add("trace.overhead_frac",
            median(agg.step_ms) / median(host.wall_ms) - 1,
            "ratio", agg.steps);
    if (!a.spans_path.empty()) write_spans(a.spans_path, traced);
  }
}

// ---------------------------------------------------------------------------
// Kernel-set workload (Fig. 9 kernels on kron-sim, profiled)
// ---------------------------------------------------------------------------

struct KernelInputs {
  hg::Dataset data;
  AlignedVec<half_t> xh, zh, wh;  // features (n x F), second operand, weights
  AlignedVec<float> xf, zf, wf;   // the same values, widened exactly
};

// Seeded operands in [-1, 1), rounded to half.
void fill_operands(KernelInputs& in, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(in.data.num_vertices()) * kFeat;
  const auto m = static_cast<std::size_t>(in.data.num_edges());
  hg::Rng rng(seed);
  auto fill = [&rng](std::size_t count, AlignedVec<half_t>& h,
                     AlignedVec<float>& f) {
    h.resize(count);
    f.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      h[i] = half_t(rng.next_float() * 2 - 1);
      f[i] = h[i].to_float();
    }
  };
  fill(n, in.xh, in.xf);
  fill(n, in.zh, in.zf);
  fill(m, in.wh, in.wf);
}

struct KernelOutputs {
  AlignedVec<half_t> spmm_hg, spmm_c16, sddmm_hg, sddmm_dgl;
  AlignedVec<float> spmm_c32;
  hg::simt::KernelStats ks[5];

  explicit KernelOutputs(const hg::Dataset& d)
      : spmm_hg(static_cast<std::size_t>(d.num_vertices()) * kFeat),
        spmm_c16(spmm_hg.size()),
        sddmm_hg(static_cast<std::size_t>(d.num_edges())),
        sddmm_dgl(sddmm_hg.size()),
        spmm_c32(spmm_hg.size()) {}
};

// One step: the kernel set, in kKernelSet order, under the cost model.
void kernel_pass(hg::simt::Stream& s, const KernelInputs& in,
                 KernelOutputs& out) {
  namespace k = hg::kernels;
  const auto g = k::view(in.data.csr, in.data.coo);
  k::HalfgnnSpmmOpts opts;
  opts.reduce = k::Reduce::kSum;
  out.ks[0] = k::spmm_halfgnn(s, true, g, in.wh, in.xh, out.spmm_hg, kFeat,
                              opts);
  out.ks[1] = k::spmm_cusparse_f16(s, true, g, in.wh, in.xh, out.spmm_c16,
                                   kFeat, k::Reduce::kSum);
  out.ks[2] = k::spmm_cusparse_f32(s, true, g, in.wf, in.xf, out.spmm_c32,
                                   kFeat, k::Reduce::kSum);
  out.ks[3] = k::sddmm_halfgnn(s, true, g, in.xh, in.zh, out.sddmm_hg, kFeat,
                               k::SddmmVec::kHalf8);
  out.ks[4] = k::sddmm_dgl_f16(s, true, g, in.xh, in.zh, out.sddmm_dgl, kFeat);
}

// fp64 references and the magnitude each result's rounding error scales
// with (the same reduction over |w| and |x|).
struct KernelRefs {
  std::vector<double> spmm, spmm_abs, sddmm, sddmm_abs;
};

KernelRefs make_refs(const KernelInputs& in) {
  auto absv = [](const AlignedVec<float>& v) {
    std::vector<float> o(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) o[i] = std::abs(v[i]);
    return o;
  };
  const auto xa = absv(in.xf), za = absv(in.zf), wa = absv(in.wf);
  namespace k = hg::kernels;
  KernelRefs r;
  r.spmm = k::reference_spmm(in.data.csr, in.wf, in.xf, kFeat, k::Reduce::kSum);
  r.spmm_abs = k::reference_spmm(in.data.csr, wa, xa, kFeat, k::Reduce::kSum);
  r.sddmm = k::reference_sddmm(in.data.coo, in.xf, in.zf, kFeat);
  r.sddmm_abs = k::reference_sddmm(in.data.coo, xa, za, kFeat);
  return r;
}

// Relative tolerance, against the |w||x| magnitude, of each dtype's
// result: a few units of accumulation rounding in the storage type.
constexpr double kTolF16 = 1.0 / 256;  // 8 ulp at half's 2^-11 roundoff
constexpr double kTolF32 = 1e-5;

// Largest |got - ref| / (tol * mag + tiny); > 1 is a failure.
template <class T>
double worst_error(const AlignedVec<T>& got, const std::vector<double>& ref,
                   const std::vector<double>& mag, double tol) {
  double worst = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    double v;
    if constexpr (std::is_same_v<T, half_t>) {
      v = static_cast<double>(got[i].to_float());
    } else {
      v = static_cast<double>(got[i]);
    }
    const double err = std::abs(v - ref[i]) / (tol * mag[i] + 1e-6);
    worst = std::isfinite(err) ? std::max(worst, err)
                               : std::numeric_limits<double>::infinity();
  }
  return worst;
}

// The five kernels' results as worst normalized errors (kKernelSet order).
std::vector<double> check_outputs(const KernelOutputs& o, const KernelRefs& r) {
  return {worst_error(o.spmm_hg, r.spmm, r.spmm_abs, kTolF16),
          worst_error(o.spmm_c16, r.spmm, r.spmm_abs, kTolF16),
          worst_error(o.spmm_c32, r.spmm, r.spmm_abs, kTolF32),
          worst_error(o.sddmm_hg, r.sddmm, r.sddmm_abs, kTolF16),
          worst_error(o.sddmm_dgl, r.sddmm, r.sddmm_abs, kTolF16)};
}

struct KernelSig {
  double time_ms[5] = {};
  std::uint64_t bytes_moved[5] = {}, lane_ops[5] = {};

  bool operator==(const KernelSig&) const = default;
};

KernelSig kernel_sig(const KernelOutputs& o) {
  KernelSig s{};
  for (int i = 0; i < 5; ++i) {
    s.time_ms[i] = o.ks[i].time_ms;
    s.bytes_moved[i] = o.ks[i].bytes_moved;
    s.lane_ops[i] = o.ks[i].lane_ops;
  }
  return s;
}

template <class T>
bool same_bits(const AlignedVec<T>& a, const AlignedVec<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_outputs(const KernelOutputs& a, const KernelOutputs& b) {
  return same_bits(a.spmm_hg, b.spmm_hg) && same_bits(a.spmm_c16, b.spmm_c16) &&
         same_bits(a.spmm_c32, b.spmm_c32) &&
         same_bits(a.sddmm_hg, b.sddmm_hg) &&
         same_bits(a.sddmm_dgl, b.sddmm_dgl);
}

void run_kernels(const Workload& w, const Args& a, Report& rep) {
  // Set-up: dataset generation plus the seeded operands.
  HostTimes setup;
  std::vector<double> graph_ms;
  KernelInputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double probe = pb::probe_ms();
    const std::int64_t t0 = pb::now_ns();
    in.data = hg::make_dataset(w.dataset);
    const std::int64_t t1 = pb::now_ns();
    fill_operands(in, a.seed);
    const std::int64_t t2 = pb::now_ns();
    graph_ms.push_back(ms_between(t0, t1));
    setup.add(ms_between(t0, t2), probe);
  }
  emit_setup(rep, setup);
  rep.add("graph.make_dataset_ms", median(graph_ms), "ms", graph_ms.size());
  const KernelRefs refs = make_refs(in);

  hg::simt::Stream& stream = hg::simt::default_stream();
  KernelOutputs out(in.data);
  KernelSig ref_sig{};
  HostTimes host;
  LayerAgg agg;
  std::vector<std::vector<pb::Span>> traced;
  std::vector<double> worst(5, 0.0);

  // A unit is one step. Unit 0 is the warm-up (first use of the staging
  // arenas) and is checked but not timed.
  double last_s = 0;
  run_units(a, a.trace ? 3 : 2, [&](int unit, bool tracing, double left_s) {
    if (last_s > left_s) return false;
    pb::Recorder& r = pb::recorder();
    r.reset(tracing);
    r.begin_step();
    kernel_pass(stream, in, out);
    r.end_step();
    last_s = ms_between(r.steps()[0].t0, r.steps()[0].t1) * 1e-3;
    rep.attempted += 1;
    const std::string tag = "step " + std::to_string(unit) + ": ";
    const auto err = check_outputs(out, refs);
    bool ok = true;
    for (std::size_t i = 0; i < err.size(); ++i) {
      worst[i] = std::max(worst[i], err[i]);
      if (ok && !(err[i] <= 1.0)) {
        rep.fail(1, tag + kKernelSet[i] + " outside tolerance (" +
                        json_num(err[i]) + ")");
        ok = false;
      }
    }
    if (unit == 0) ref_sig = kernel_sig(out);
    if (ok && kernel_sig(out) != ref_sig) {
      rep.fail(1, tag + "modeled counters differ from step 0");
    }
    if (unit == 0) return true;
    if (tracing) {
      accumulate(agg, rep, r.spans(), r.steps(), {0});
      traced.push_back(r.spans());
    } else {
      host.add(r.steps()[0]);
    }
    return true;
  });

  // Thread-count cross-check: outputs and modeled counters bit-identical.
  {
    hg::simt::Device dev(hg::simt::a100_spec(), alt_threads(w.threads));
    hg::simt::Stream alt(dev);
    KernelOutputs o2(in.data);
    pb::recorder().reset(false);
    kernel_pass(alt, in, o2);
    rep.attempted += 1;
    if (!same_outputs(out, o2) || kernel_sig(o2) != ref_sig) {
      rep.fail(1, "threads " + std::to_string(alt_threads(w.threads)) +
                      ": kernel outputs or modeled counters differ");
    }
  }

  for (int i = 0; i < 5; ++i) {
    rep.add(std::string("check.") + kKernelSet[i] + ".worst_error",
            worst[static_cast<std::size_t>(i)], "tol");
  }
  emit_host(rep, host, in.data.num_edges());
  ModeledSig s{};
  for (int i = 0; i < 5; ++i) {
    s.sparse_ms += ref_sig.time_ms[i];
    s.bytes_moved += static_cast<double>(ref_sig.bytes_moved[i]);
    s.lane_ops += static_cast<double>(ref_sig.lane_ops[i]);
  }
  s.total_ms = s.sparse_ms;
  s.kernels = 5;
  emit_modeled(rep, s);
  if (a.trace) {
    emit_layers(rep, agg);
    rep.add("trace.overhead_frac",
            median(agg.step_ms) / median(host.wall_ms) - 1,
            "ratio", agg.steps);
    if (!a.spans_path.empty()) write_spans(a.spans_path, traced);
  }
}

// ---------------------------------------------------------------------------

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.seed = std::stoull(val());
    } else if (k == "--seconds") {
      a.seconds = std::stod(val());
    } else if (k == "--trace") {
      a.trace = val() == "1";
    } else if (k == "--quick") {
      a.quick = true;
    } else if (k == "--workdir") {
      a.workdir = val();
    } else if (k == "--spans") {
      a.spans_path = val();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  return a;
}

void print(const Workload& w, const Args& a, const Report& rep) {
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"quick\":%d",
              json_str(w.name).c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
              a.quick ? 1 : 0);
  std::printf(",\"threads\":%d,\"simd\":%s,\"build_type\":%s",
              hg::simt::default_device().threads(),
              json_str(hg::simt::simd::path_name()).c_str(),
              json_str(PERFBENCH_BUILD_TYPE).c_str());
  std::printf(",\"f16c_build\":%d,\"avx2_build\":%d", PERFBENCH_F16C,
              PERFBENCH_AVX2);
  std::printf(",\"attempted\":%lld,\"failed\":%lld",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  std::printf(",\"loss_hash\":%s,\"failures\":[", json_str(rep.loss_hash).c_str());
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    std::printf("%s%s", i ? "," : "", json_str(rep.failures[i]).c_str());
  }
  std::printf("],\"accounting\":{\"min_other_ms\":%s,\"max_self_gap_ms\":%s,"
              "\"spans_outside\":%lld}",
              json_num(rep.min_other_ms).c_str(),
              json_num(rep.max_self_gap_ms).c_str(),
              static_cast<long long>(rep.spans_outside));
  std::printf(",\"metrics\":{");
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s%s:{\"value\":%s,\"unit\":%s,\"samples\":%zu}",
                i ? "," : "", json_str(m.name).c_str(),
                json_num(m.value).c_str(), json_str(m.unit).c_str(),
                m.samples);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "--list-sites") {
      for (const auto& s : pb::sites()) std::printf("%s\n", s.name.c_str());
      return 0;
    }
    const Args a = parse(argc, argv);
    const Workload* w = nullptr;
    for (const auto& c : kWorkloads) {
      if (a.workload == c.name) w = &c;
    }
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
    // The pool reads HALFGNN_THREADS on first use. An explicit setting wins,
    // for experiments; the result records the pool size the run used.
    setenv("HALFGNN_THREADS", std::to_string(w->threads).c_str(), 0);
    if (hg::simt::default_device().threads() != w->threads) {
      std::fprintf(stderr,
                   "perfbench: warning: %s is defined at HALFGNN_THREADS=%d, "
                   "running with %d\n",
                   w->name, w->threads, hg::simt::default_device().threads());
    }
    std::filesystem::create_directories(a.workdir);
    Report rep;
    if (w->kind == Kind::kTrain) {
      run_training(*w, a, rep);
    } else {
      run_kernels(*w, a, rep);
    }
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("failed_step_frac",
            rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 1.0,
            "ratio", static_cast<std::size_t>(rep.attempted));
    print(*w, a, rep);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
