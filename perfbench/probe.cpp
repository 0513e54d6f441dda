#include "probe.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "recorder.hpp"

namespace perfbench {

namespace {

// The probe mixes the two kinds of work the workloads spend their time on: a
// row-major float GEMM loop of the same shape as the repo's dense gemm, and
// random reads from a table larger than the L2 cache, like a sparse gather.
constexpr int kRows = 256, kInner = 128, kCols = 64;
constexpr std::size_t kTable = std::size_t{1} << 21;  // floats: 8 MiB
constexpr std::size_t kReads = std::size_t{1} << 17;

struct ProbeData {
  std::vector<float> a, b, c, table;
  std::vector<std::uint32_t> idx;

  ProbeData()
      : a(kRows * kInner), b(kInner * kCols), c(kRows * kCols),
        table(kTable), idx(kReads) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(x >> 33);
    };
    for (auto& v : a) v = static_cast<float>(next() % 1024) / 1024.0f;
    for (auto& v : b) v = static_cast<float>(next() % 1024) / 1024.0f;
    for (auto& v : table) v = static_cast<float>(next() % 1024) / 1024.0f;
    for (auto& i : idx) i = next() % kTable;
  }
};

volatile float g_sink;

void probe_work(ProbeData& d) {
  std::fill(d.c.begin(), d.c.end(), 0.0f);
  for (int i = 0; i < kRows; ++i) {
    const float* arow = d.a.data() + i * kInner;
    float* crow = d.c.data() + i * kCols;
    for (int k = 0; k < kInner; ++k) {
      const float av = arow[k];
      const float* brow = d.b.data() + k * kCols;
      for (int j = 0; j < kCols; ++j) crow[j] += av * brow[j];
    }
  }
  float sum = d.c[kCols + 1];
  for (std::uint32_t i : d.idx) sum += d.table[i];
  g_sink = sum;  // the work must finish before the caller's timestamp
}

}  // namespace

double probe_ms() {
  static ProbeData d;
  // One untimed run first, so that the first timed one starts warm.
  static const bool warm = (probe_work(d), true);
  (void)warm;
  const std::int64_t t0 = now_ns();
  probe_work(d);
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

}  // namespace perfbench
