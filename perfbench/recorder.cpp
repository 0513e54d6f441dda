#include "recorder.hpp"

#include "probe.hpp"

namespace perfbench {

namespace {

// Set on the thread that last called Recorder::reset(); spans from any other
// thread are not recorded.
thread_local bool t_owner = false;

std::vector<Site>& site_table() {
  static std::vector<Site> table;
  return table;
}

}  // namespace

int register_site(const char* name) {
  std::string n(name);
  const auto dot = n.find('.');
  site_table().push_back(Site{n, n.substr(0, dot)});
  return static_cast<int>(site_table().size()) - 1;
}

const std::vector<Site>& sites() { return site_table(); }

Recorder& recorder() {
  static Recorder r;
  return r;
}

void Recorder::reset(bool tracing) {
  t_owner = true;
  tracing_ = tracing;
  spans_.clear();
  open_.clear();
  steps_.clear();
  modeled_ = ModeledTotals{};
  if (tracing) spans_.reserve(1 << 16);
}

int Recorder::begin(int site, double work) {
  if (!tracing_ || !t_owner) return -1;
  Span s;
  s.site = site;
  s.work = work;
  s.parent = open_.empty() ? -1 : open_.back();
  s.step = static_cast<std::int32_t>(steps_.size()) - 1;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  s.t0 = now_ns();
  spans_.push_back(s);
  open_.push_back(idx);
  return idx;
}

void Recorder::end(int idx) noexcept {
  spans_[static_cast<std::size_t>(idx)].t1 = now_ns();
  open_.pop_back();
}

void Recorder::add_work(int idx, double work) noexcept {
  if (idx >= 0) spans_[static_cast<std::size_t>(idx)].work += work;
}

void Recorder::begin_step() {
  end_step();
  const double probe = probe_ms();
  steps_.push_back(Step{now_ns(), 0, probe});
}

void Recorder::end_step() {
  if (!steps_.empty() && steps_.back().t1 == 0) steps_.back().t1 = now_ns();
}

void Recorder::note_kernel(double bytes_moved, double lane_ops) {
  modeled_.bytes_moved += bytes_moved;
  modeled_.lane_ops += lane_ops;
}

Scope::Scope(int site, double work) : idx_(recorder().begin(site, work)) {}

}  // namespace perfbench
