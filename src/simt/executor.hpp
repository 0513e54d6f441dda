// Device/Stream executor: parallel, deterministic CTA execution.
//
// A Device owns a persistent host thread pool (size from HALFGNN_THREADS,
// default hardware_concurrency; 1 = sequential on the calling thread) and
// the DeviceSpec cost model. A Stream is the launch API the kernels use.
//
// Determinism contract: every number a launch produces — output tensors,
// KernelStats, and everything src/obs publishes — is bit-identical for any
// thread count. Three mechanisms make that hold:
//
//  1. CTAs execute in fixed contiguous chunks (kCtasPerChunk, a property of
//     the launch, not of the pool). Each chunk accumulates into a private
//     KernelStats shard and a private per-CTA cost vector; shards merge in
//     chunk order via KernelStats::operator+= (raw-denominator semantics),
//     so double-precision accumulation order never depends on scheduling.
//  2. Kernels with cross-CTA conflict writes (atomic cuSPARSE-like SpMM,
//     the Fig. 13 atomic ablation, Huang-style group partials) declare a
//     ConflictPolicy. The executor then gives each shard a private staging
//     view of the output; a follow-up merge pass folds the shards into the
//     destination in fixed shard order — the same staging-plus-deterministic-
//     merge design HalfGNN itself uses instead of device atomics
//     (paper Sec. 4.1.3/5.2.3), applied to host threads. Staging is active
//     at every thread count (including 1), so float/half accumulation order
//     and overflow behavior are launch properties, not schedule properties.
//  3. The merged stats are finalized and published exactly once per launch,
//     from the calling thread.
//
// The staged merge is host machinery, not device work: it charges nothing
// to the cost model (the kernels' atomic charges stay), so profiled output
// is unchanged in schema and value. Host wall time is measured per launch
// into KernelStats::host_ms, which is reported by the benches but never
// published to metrics/trace JSON.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "half/vec.hpp"
#include "obs/prof/prof.hpp"
#include "simt/cta.hpp"
#include "simt/fault.hpp"
#include "simt/sanitizer.hpp"

namespace hg::simt {

struct LaunchDesc {
  std::string name;
  int ctas = 1;
  int warps_per_cta = 4;
};

// How a launch's cross-CTA conflicting writes combine during the staged
// merge. kNone means CTA output locations are exclusive (no staging).
enum class ConflictPolicy { kNone, kStagedSum, kStagedMax };

// Element window [begin, end) of the output that CTAs [cta_begin, cta_end)
// may write. Bounds the staging memory the executor zeroes and merges; must
// be a superset of the CTAs' actual writes. Unset = the whole output.
using CtaWindowFn =
    std::function<std::pair<std::size_t, std::size_t>(int cta_begin,
                                                      int cta_end)>;

// A conflict-writing launch's output declaration.
template <class T>
struct StagedOutput {
  std::span<T> dst;
  ConflictPolicy policy = ConflictPolicy::kStagedSum;
  CtaWindowFn window;  // optional
};

namespace detail {

// CTAs per execution chunk — fixed so chunk structure (and therefore every
// accumulation order) is independent of the thread count.
inline constexpr int kCtasPerChunk = 8;
// Staging shards for conflict launches: enough to keep 16 host threads
// busy, few enough that staging memory stays ~shards/ctas of the output.
inline constexpr int kConflictShards = 16;
// Elements per merge-pass job.
inline constexpr std::size_t kMergeBlockElems = std::size_t{1} << 16;

// HALFGNN_THREADS, default std::thread::hardware_concurrency().
int env_threads();

// One chunk's private stats accumulator, padded to a cache line so pool
// threads flushing neighboring shards never false-share.
struct alignas(64) StatsShard {
  KernelStats ks;
};

// Per-device launch workspace, reused across launches (the launch mutex
// serializes access): shard stats, per-chunk cost vectors, the merged CTA
// cost list, and staging windows. Steady-state launches allocate nothing
// here — vectors only grow, never shrink.
struct LaunchScratch {
  std::vector<StatsShard> part;
  std::vector<std::vector<std::pair<double, double>>> cost;
  std::vector<std::pair<double, double>> cta_cost;
  std::vector<std::pair<std::size_t, std::size_t>> win;

  void prepare(std::size_t shards, bool profiled) {
    if (part.size() < shards) part.resize(shards);
    for (std::size_t i = 0; i < shards; ++i) part[i].ks = KernelStats{};
    if (profiled) {
      if (cost.size() < shards) cost.resize(shards);
      for (std::size_t i = 0; i < shards; ++i) cost[i].clear();
    }
    cta_cost.clear();
  }
};

// Device-level scheduling model: CTA costs are distributed round-robin
// over min(num_sms, num_ctas) SMs (a 1-CTA launch models a 1-SM device);
// resident CTAs hide stalls but contend for issue slots; the result is
// clamped by peak DRAM bandwidth.
void finalize(KernelStats& ks, const DeviceSpec& spec,
              const std::vector<std::pair<double, double>>& cta_cost);

template <class T>
T staged_identity(ConflictPolicy policy) {
  if constexpr (std::is_same_v<T, half2>) {
    return policy == ConflictPolicy::kStagedMax
               ? half2{half_limits::kNegInf, half_limits::kNegInf}
               : half2(0.0f, 0.0f);
  } else if constexpr (std::is_same_v<T, half_t>) {
    return policy == ConflictPolicy::kStagedMax ? half_limits::kNegInf
                                                : half_t(0.0f);
  } else {
    return policy == ConflictPolicy::kStagedMax
               ? -std::numeric_limits<T>::infinity()
               : T{};
  }
}

template <class T>
T staged_combine(ConflictPolicy policy, T a, T b) {
  if constexpr (std::is_same_v<T, half2>) {
    return policy == ConflictPolicy::kStagedMax ? h2max(a, b) : h2add(a, b);
  } else if constexpr (std::is_same_v<T, half_t>) {
    if (policy == ConflictPolicy::kStagedMax) {
      return a.to_float() < b.to_float() ? b : a;
    }
    return a + b;
  } else {
    return policy == ConflictPolicy::kStagedMax ? std::max(a, b) : a + b;
  }
}

}  // namespace detail

// A modeled GPU plus the host thread pool that simulates it.
class Device {
 public:
  explicit Device(const DeviceSpec& spec, int threads = detail::env_threads());
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const noexcept { return spec_; }
  int threads() const noexcept { return threads_; }

  // Runs fn(0..jobs-1) across the pool; the calling thread participates.
  // Job indices are claimed dynamically, so callers must write results to
  // per-job slots and merge in index order. Worker exceptions rethrow here.
  // The caller must hold the launch mutex (Stream does; host work takes it
  // through try_claim_pool).
  void run_jobs(int jobs, const std::function<void(int)>& fn);

  // Claims the pool for host data-parallel work that is not a kernel launch
  // (the dense ops in src/tensor call run_jobs under it). The lock owns the
  // launch mutex when it was free; while a launch holds it, the lock owns
  // nothing and the caller runs its jobs on its own thread instead. No
  // fault, sanitizer, profiler or watchdog state is armed for such work.
  // Must not be called from inside a kernel body.
  std::unique_lock<std::mutex> try_claim_pool() {
    return std::unique_lock<std::mutex>(launch_mu_, std::try_to_lock);
  }

  // Reusable per-shard staging arena (bytes survive across launches so
  // repeated conflict launches do not re-fault pages).
  std::span<std::byte> scratch(int slot, std::size_t bytes);

  // Replaces the device's fault configuration (the default is
  // HALFGNN_FAULTS, read at construction). Takes the launch mutex, so it
  // must not be called from inside a kernel body.
  void set_faults(FaultConfig cfg);
  // The device's injector; read its totals only between launches.
  const FaultInjector& faults() const noexcept { return injector_; }

  // Replaces the device's sanitizer (the default configuration is
  // HALFGNN_SANITIZE, read at construction). Takes the launch mutex, so it
  // must not be called from inside a kernel body. Resets collected
  // violations and the launch ordinal.
  void set_sanitizer(SanitizerConfig cfg);
  // The device's hazard collector; read its violations only between
  // launches.
  const Sanitizer& sanitizer() const noexcept { return sanitizer_; }
  Sanitizer& sanitizer() noexcept { return sanitizer_; }

  // Replaces the device's profiler (hgprof; the default configuration is
  // HALFGNN_PROF, read at construction). Takes the launch mutex, so it must
  // not be called from inside a kernel body. Drops collected data.
  void set_profiler(obs::prof::ProfConfig cfg);
  // The device's profiler; read reports / feed trainer telemetry only
  // between launches.
  const obs::prof::Profiler& profiler() const noexcept { return profiler_; }
  obs::prof::Profiler& profiler() noexcept { return profiler_; }

  // Per-launch watchdog deadline in wall-clock milliseconds (default from
  // HALFGNN_WATCHDOG_MS; <= 0 disables). A launch that exceeds it — a
  // `stuck` fault, or real work that hangs — is reaped as a typed
  // LaunchHang, which rides the same TrainGuard retry ladder as
  // LaunchFault. The reap is wall-clock work, so it publishes nothing to
  // metrics/trace (the deterministic `stuck` arm already did). Takes the
  // launch mutex.
  void set_watchdog_ms(double ms);
  double watchdog_ms() const noexcept { return wd_ms_; }

 private:
  friend class Stream;

  // Arms the reusable per-launch fault state for `kernel`, or returns
  // nullptr when no data-corrupting fault applies to it (an inactive
  // injector costs one branch). Throws LaunchFault when a launchfail
  // clause fires. The caller must hold launch_mu_.
  detail::LaunchFaultState* arm_faults(const std::string& kernel);

  // Arms the reusable per-launch sanitizer state, or returns nullptr when
  // the sanitizer is inactive (the common case costs one branch here and
  // one null-check per instrumented access). The caller must hold
  // launch_mu_.
  detail::LaunchSanState* arm_sanitizer(const std::string& kernel, int ctas);

  // Arms the reusable per-launch hgprof state, or returns nullptr when the
  // profiler is inactive (same cost profile as the other two). The caller
  // must hold launch_mu_.
  obs::prof::detail::LaunchProfState* arm_profiler(const std::string& kernel);

  void worker_loop();
  bool claim(std::uint64_t gen, int jobs, int& idx);
  void run_claimed(std::uint64_t gen, int jobs,
                   const std::function<void(int)>& fn);

  // --- watchdog (all called with launch_mu_ held, except the loop) ---------
  // Whether the armed fault state marked this launch as stuck.
  bool stuck_armed() const noexcept { return fault_state_.stuck; }
  // Simulates the hang on the calling thread: blocks until the watchdog
  // reaps it (throwing LaunchHang), or forever when no watchdog is armed —
  // exactly like hardware.
  [[noreturn]] void stuck_wait(const std::string& kernel);
  void arm_watchdog();
  void disarm_watchdog() noexcept;
  bool watchdog_cancelled() const noexcept {
    return wd_cancel_.load(std::memory_order_relaxed);
  }
  [[noreturn]] void throw_hang(const std::string& kernel) const;
  void watchdog_loop();

  DeviceSpec spec_;
  int threads_;

  // One launch in flight per device; Stream locks this around each launch.
  std::mutex launch_mu_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::function<void(int)> job_;
  int jobs_ = 0;
  int done_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  // Packs (generation << 32) | next_job_index; claims CAS the low half so
  // a stale worker can never claim into a newer launch.
  std::atomic<std::uint64_t> claim_{0};

  std::vector<std::thread> workers_;
  std::vector<std::vector<std::byte>> scratch_;
  // Reused launch workspace; guarded by launch_mu_.
  detail::LaunchScratch launch_scratch_;
  // Fault injection (simt/fault.hpp); both guarded by launch_mu_.
  FaultInjector injector_;
  detail::LaunchFaultState fault_state_;
  // Hazard analysis (simt/sanitizer.hpp); guarded by launch_mu_.
  Sanitizer sanitizer_;
  // hgprof (obs/prof/prof.hpp); launch path guarded by launch_mu_.
  obs::prof::Profiler profiler_;

  // Watchdog: one deadline thread per device, started lazily on the first
  // armed launch. wd_ms_ is guarded by launch_mu_; the arm/deadline state
  // by wd_mu_; wd_cancel_ is the lock-free reap signal kernel chunks poll.
  double wd_ms_ = 0;
  bool wd_started_ = false;
  std::thread wd_thread_;
  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;
  bool wd_armed_ = false;
  std::uint64_t wd_gen_ = 0;
  std::chrono::steady_clock::time_point wd_deadline_{};
  std::atomic<bool> wd_cancel_{false};
};

// The launch API. Kernels hold a Stream& and call launch(); SparseCtx
// carries a Stream* (see nn/common.hpp).
class Stream {
 public:
  explicit Stream(Device& dev) : dev_(&dev) {}

  Device& device() const noexcept { return *dev_; }
  const DeviceSpec& spec() const noexcept { return dev_->spec(); }

  // Conflict-free launch: body(Cta<Profiled>&). CTA output locations must
  // be exclusive per CTA (or written only through kernel-private staging).
  template <bool Profiled, class Body>
  KernelStats launch(LaunchDesc desc, Body&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> guard(dev_->launch_mu_);
    detail::LaunchFaultState* flt = dev_->arm_faults(desc.name);
    if (dev_->stuck_armed()) dev_->stuck_wait(desc.name);
    WdGuard wd(dev_);
    detail::LaunchSanState* san = dev_->arm_sanitizer(desc.name, desc.ctas);
    obs::prof::detail::LaunchProfState* prf = dev_->arm_profiler(desc.name);
    KernelStats ks = run_ctas<Profiled>(desc, body, flt, san, prf);
    return finish_launch<Profiled>(ks, t0, flt, san, prf);
  }

  // Conflict launch: body(Cta<Profiled>&, std::span<T> out) writes every
  // conflicting (and interior) output element through `out`, a per-shard
  // staging view indexed like staged.dst. Shards merge into staged.dst in
  // fixed shard order under the declared policy.
  template <bool Profiled, class T, class Body>
  KernelStats launch(LaunchDesc desc, StagedOutput<T> staged, Body&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> guard(dev_->launch_mu_);
    detail::LaunchFaultState* flt = dev_->arm_faults(desc.name);
    if (dev_->stuck_armed()) dev_->stuck_wait(desc.name);
    WdGuard wd(dev_);
    detail::LaunchSanState* san = dev_->arm_sanitizer(desc.name, desc.ctas);
    obs::prof::detail::LaunchProfState* prf = dev_->arm_profiler(desc.name);
    // Warps only sample stores when the numerics analyzer is armed; a
    // roofline-only profiler stays entirely out of the CTA path.
    obs::prof::detail::LaunchProfState* prfw =
        (prf != nullptr && prf->numerics()) ? prf : nullptr;

    const int ctas = desc.ctas;
    const int shards = std::min(detail::kConflictShards, std::max(1, ctas));
    const auto shard_begin = [&](int s) {
      return static_cast<int>(static_cast<long long>(ctas) * s / shards);
    };

    detail::LaunchScratch& ls = dev_->launch_scratch_;
    ls.prepare(static_cast<std::size_t>(shards), Profiled);
    auto& win = ls.win;
    win.resize(static_cast<std::size_t>(shards));
    std::vector<std::span<T>> stage(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      const auto su = static_cast<std::size_t>(s);
      win[su] = staged.window
                    ? staged.window(shard_begin(s), shard_begin(s + 1))
                    : std::pair<std::size_t, std::size_t>{0,
                                                          staged.dst.size()};
      win[su].second = std::min(win[su].second, staged.dst.size());
      win[su].first = std::min(win[su].first, win[su].second);
      auto bytes = dev_->scratch(s, staged.dst.size() * sizeof(T));
      stage[su] = {reinterpret_cast<T*>(bytes.data()), staged.dst.size()};
    }

    // Declare the staged layout to the conflict checker: per-shard staging
    // address ranges (to translate plain stores back to logical offsets),
    // the declared windows in bytes, and each shard's CTA range.
    if (san != nullptr) {
      san->policy = static_cast<int>(staged.policy);
      san->elem_bytes = sizeof(T);
      san->shards.resize(static_cast<std::size_t>(shards));
      for (int s = 0; s < shards; ++s) {
        const auto su = static_cast<std::size_t>(s);
        detail::SanShardInfo& sh = san->shards[su];
        sh.stage_lo = reinterpret_cast<std::uint64_t>(stage[su].data());
        sh.stage_hi = sh.stage_lo + stage[su].size() * sizeof(T);
        sh.win_lo = win[su].first * sizeof(T);
        sh.win_hi = win[su].second * sizeof(T);
        sh.cta_begin = shard_begin(s);
        sh.cta_end = shard_begin(s + 1);
      }
    }

    const T identity = detail::staged_identity<T>(staged.policy);
    auto& part = ls.part;
    auto& cost = ls.cost;
    dev_->run_jobs(ctas > 0 ? shards : 0, [&](int s) {
      if (dev_->watchdog_cancelled()) dev_->throw_hang(desc.name);
      const auto su = static_cast<std::size_t>(s);
      for (std::size_t i = win[su].first; i < win[su].second; ++i) {
        stage[su][i] = identity;
      }
      const int c0 = shard_begin(s);
      const int c1 = shard_begin(s + 1);
      if constexpr (Profiled) {
        cost[su].reserve(static_cast<std::size_t>(c1 - c0));
      }
      for (int c = c0; c < c1; ++c) {
        Cta<Profiled> cta(dev_->spec(), part[su].ks, c, desc.warps_per_cta,
                          dev_->spec().smem_bytes, &CtaArena::local(), flt,
                          san, prfw);
        body(cta, stage[su]);
        auto cc = cta.finish();
        if constexpr (Profiled) cost[su].push_back(cc);
      }
    });

    // Staged merge (host machinery, never charged to the cost model): fold
    // the shards into dst in shard order, per fixed element blocks. Elements
    // outside every window keep the caller's prefill.
    std::size_t lo = staged.dst.size(), hi = 0;
    for (const auto& w : win) {
      if (w.first >= w.second) continue;
      lo = std::min(lo, w.first);
      hi = std::max(hi, w.second);
    }
    if (lo < hi) {
      const auto blocks = static_cast<int>(
          (hi - lo + detail::kMergeBlockElems - 1) / detail::kMergeBlockElems);
      dev_->run_jobs(blocks, [&](int b) {
        const std::size_t b0 =
            lo + static_cast<std::size_t>(b) * detail::kMergeBlockElems;
        const std::size_t b1 = std::min(hi, b0 + detail::kMergeBlockElems);
        for (std::size_t i = b0; i < b1; ++i) {
          T v = identity;
          bool covered = false;
          for (int s = 0; s < shards; ++s) {
            const auto su = static_cast<std::size_t>(s);
            if (i >= win[su].first && i < win[su].second) {
              v = detail::staged_combine<T>(staged.policy, v, stage[su][i]);
              covered = true;
            }
          }
          if (covered) staged.dst[i] = v;
        }
      });
    }

    KernelStats ks;
    ks.name = std::move(desc.name);
    ks.ctas = ctas;
    ks.warps_per_cta = desc.warps_per_cta;
    for (int s = 0; s < shards; ++s) {
      ks += part[static_cast<std::size_t>(s)].ks;
    }
    if constexpr (Profiled) {
      auto& cta_cost = ls.cta_cost;
      cta_cost.reserve(static_cast<std::size_t>(ctas));
      for (int s = 0; s < shards; ++s) {
        const auto& v = cost[static_cast<std::size_t>(s)];
        cta_cost.insert(cta_cost.end(), v.begin(), v.end());
      }
      detail::finalize(ks, dev_->spec(), cta_cost);
    }
    return finish_launch<Profiled>(ks, t0, flt, san, prf);
  }

 private:
  // Arms the device watchdog for one launch and disarms it on every exit
  // path (normal return, LaunchHang reap, kernel-body exception).
  class WdGuard {
   public:
    explicit WdGuard(Device* d) : d_(d) { d_->arm_watchdog(); }
    ~WdGuard() { d_->disarm_watchdog(); }
    WdGuard(const WdGuard&) = delete;
    WdGuard& operator=(const WdGuard&) = delete;

   private:
    Device* d_;
  };

  template <bool Profiled, class Body>
  KernelStats run_ctas(const LaunchDesc& desc, Body& body,
                       detail::LaunchFaultState* flt,
                       detail::LaunchSanState* san,
                       obs::prof::detail::LaunchProfState* prf) {
    obs::prof::detail::LaunchProfState* prfw =
        (prf != nullptr && prf->numerics()) ? prf : nullptr;
    const int ctas = desc.ctas;
    const int chunks =
        (ctas + detail::kCtasPerChunk - 1) / detail::kCtasPerChunk;
    detail::LaunchScratch& ls = dev_->launch_scratch_;
    ls.prepare(static_cast<std::size_t>(chunks), Profiled);
    auto& part = ls.part;
    auto& cost = ls.cost;
    dev_->run_jobs(chunks, [&](int ch) {
      if (dev_->watchdog_cancelled()) dev_->throw_hang(desc.name);
      const auto cu = static_cast<std::size_t>(ch);
      const int c0 = ch * detail::kCtasPerChunk;
      const int c1 = std::min(ctas, c0 + detail::kCtasPerChunk);
      if constexpr (Profiled) {
        cost[cu].reserve(static_cast<std::size_t>(c1 - c0));
      }
      for (int c = c0; c < c1; ++c) {
        Cta<Profiled> cta(dev_->spec(), part[cu].ks, c, desc.warps_per_cta,
                          dev_->spec().smem_bytes, &CtaArena::local(), flt,
                          san, prfw);
        body(cta);
        auto cc = cta.finish();
        if constexpr (Profiled) cost[cu].push_back(cc);
      }
    });

    KernelStats ks;
    ks.name = desc.name;
    ks.ctas = ctas;
    ks.warps_per_cta = desc.warps_per_cta;
    for (int ch = 0; ch < chunks; ++ch) {
      ks += part[static_cast<std::size_t>(ch)].ks;
    }
    if constexpr (Profiled) {
      auto& cta_cost = ls.cta_cost;
      cta_cost.reserve(static_cast<std::size_t>(ctas));
      for (int ch = 0; ch < chunks; ++ch) {
        const auto& v = cost[static_cast<std::size_t>(ch)];
        cta_cost.insert(cta_cost.end(), v.begin(), v.end());
      }
      detail::finalize(ks, dev_->spec(), cta_cost);
    }
    return ks;
  }

  template <bool Profiled>
  KernelStats finish_launch(KernelStats& ks,
                            std::chrono::steady_clock::time_point t0,
                            detail::LaunchFaultState* flt = nullptr,
                            detail::LaunchSanState* san = nullptr,
                            obs::prof::detail::LaunchProfState* prf = nullptr) {
    ks.host_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    // Fault accounting first (injector totals + fault.* counters), then the
    // sanitizer merge, then hgprof — each once per launch, from this
    // thread, in program order. The profiler sees the merged (already
    // thread-invariant) stats, so its aggregates inherit determinism.
    if (flt != nullptr) dev_->injector_.publish(ks.name, *flt);
    if (san != nullptr) dev_->sanitizer_.finish_launch(*san);
    if (prf != nullptr) {
      dev_->profiler_.finish_launch(*prf, ks, dev_->spec(), Profiled);
    }
    if constexpr (Profiled) {
      // One publish per launch, from the merged stats, on this thread.
      publish_profile(ks);
    }
    return std::move(ks);
  }

  Device* dev_;
};

// The process-default modeled A100 and its stream (pool size from
// HALFGNN_THREADS, read once on first use).
Device& default_device();
Stream& default_stream();

}  // namespace hg::simt
