// In-memory span recorder for the benchmark's layer-boundary wrappers.
//
// wrap.cpp intercepts the public entry points of the repo's libraries at
// link time (GNU ld --wrap). Each intercepted call opens a Scope. With
// tracing off a Scope costs one branch; with tracing on it appends one Span
// (site, start, end, parent, step) to a vector that is aggregated, and
// written out as a Chrome trace, after the run. Only the thread that armed
// tracing records; calls from pool workers pass straight through.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A wrapped entry point. `name` is "<layer>.<function>", e.g. "tensor.gemm";
// the layer is the part before the first dot.
struct Site {
  std::string name;
  std::string layer;
};

// Registers a wrapped entry point; returns its id. Called once per site from
// static initializers in wrap.cpp.
int register_site(const char* name);
const std::vector<Site>& sites();

struct Span {
  std::int64_t t0 = 0, t1 = 0;  // steady_clock ns
  double work = 0;              // flops, bytes or jobs, per site
  std::int32_t parent = -1;     // index into the span vector, -1 = root
  std::int32_t step = -1;       // index of the step open at t0
  std::int32_t site = 0;
};

// One step: a training epoch (delimited by consecutive calls into
// softmax_xent) or one pass over a kernel set. t1 == 0 while still open.
struct Step {
  std::int64_t t0 = 0, t1 = 0;
  double probe_ms = 0;  // host-speed probe run just before t0 (probe.hpp)
};

// Modeled-clock counters summed over every kernel launch (unprofiled
// launches report zeros).
struct ModeledTotals {
  double bytes_moved = 0;
  double lane_ops = 0;
};

class Recorder {
 public:
  // Starts a fresh segment: clears spans, steps and modeled totals. With
  // `tracing` the calling thread records spans until the next reset.
  void reset(bool tracing);

  int begin(int site, double work);
  void end(int idx) noexcept;

  // Closes the previous step if it is still open, runs the host-speed probe,
  // and opens a new step when the probe is done. Training steps are
  // contiguous but for the probes between them.
  void begin_step();
  void end_step();

  void note_kernel(double bytes_moved, double lane_ops);
  void add_work(int idx, double work) noexcept;

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<Step>& steps() const noexcept { return steps_; }
  const ModeledTotals& modeled() const noexcept { return modeled_; }

  // Directory the checkpoint wrapper sizes written files in.
  std::string ckpt_dir;

 private:
  bool tracing_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<Step> steps_;
  ModeledTotals modeled_;
};

Recorder& recorder();

// RAII span around one intercepted call.
class Scope {
 public:
  Scope(int site, double work);
  ~Scope() {
    if (idx_ >= 0) recorder().end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const noexcept { return idx_; }

 private:
  int idx_ = -1;
};

}  // namespace perfbench
