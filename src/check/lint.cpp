#include "check/lint.hpp"

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "amp/amp.hpp"
#include "half/dtype.hpp"
#include "nn/common.hpp"
#include "nn/kernel_table.hpp"

namespace hg::check {

namespace {

constexpr std::array<std::string_view, 3> kProfTokens = {"roofline",
                                                         "numerics", "all"};
constexpr std::array<std::string_view, 2> kProfSamples = {"roofline,numerics",
                                                          "all"};
constexpr std::array<std::string_view, 5> kSanTokens = {"race", "mem", "init",
                                                        "sync", "all"};
constexpr std::array<std::string_view, 2> kSanSamples = {"race,mem,init,sync",
                                                         "all"};
constexpr std::array<std::string_view, 5> kFaultTokens = {
    "bitflip", "launchfail", "overflow", "stuck", "torncrash"};
constexpr std::array<std::string_view, 2> kFaultSamples = {
    "bitflip:rate=1e-6,seed=7;launchfail:every=500",
    "overflow:kernel=spmm;stuck:every=3,kernel=spmm;torncrash:epoch=4,at=128"};

constexpr std::array<GrammarTable, 3> kGrammars = {{
    {"HALFGNN_PROF", kProfTokens, kProfSamples},
    {"HALFGNN_SANITIZE", kSanTokens, kSanSamples},
    {"HALFGNN_FAULTS", kFaultTokens, kFaultSamples},
}};

const std::array<nn::SystemMode, 3> kModes = {nn::SystemMode::kDglFloat,
                                              nn::SystemMode::kDglHalf,
                                              nn::SystemMode::kHalfGnn};

void add(std::vector<LintIssue>& out, std::string rule, std::string subject,
         std::string detail) {
  out.push_back({std::move(rule), std::move(subject), std::move(detail)});
}

std::string chain_subject(nn::SparseOp op, nn::SystemMode mode, Dtype dt) {
  return std::string(nn::op_name(op)) + "/" + nn::mode_name(mode) + "/" +
         std::string(dtype_name(dt));
}

}  // namespace

std::span<const GrammarTable> grammar_tables() { return kGrammars; }

std::vector<LintIssue> lint_registry() {
  std::vector<LintIssue> out;

  // --- dtype-traits --------------------------------------------------------
  for (const Dtype dt : all_dtypes()) {
    if (dtype_name(dt).empty()) {
      add(out, "dtype-traits", std::string(dtype_name(dt)),
          "dtype has an empty name");
    }
    for (const Dtype other : all_dtypes()) {
      if (other != dt && dtype_name(other) == dtype_name(dt)) {
        add(out, "dtype-traits", std::string(dtype_name(dt)),
            "duplicate dtype name in the trait table");
      }
    }
    if (amp::needs_loss_scaling(dt) && !dtype_trainable(dt)) {
      add(out, "dtype-traits", std::string(dtype_name(dt)),
          "needs_loss_scaling set for a non-trainable dtype: the scaler "
          "only runs inside a training loop");
    }
  }

  // --- ladder rules over the full (op x mode x dtype) grid -----------------
  for (const nn::SparseOp op : nn::kSparseOps) {
    for (const nn::SystemMode mode : kModes) {
      for (const Dtype dt : all_dtypes()) {
        const std::string subject = chain_subject(op, mode, dt);
        nn::Ladder ladder;
        try {
          ladder = nn::kernel_ladder(op, mode, dt);
        } catch (const std::logic_error& e) {
          add(out, "chain-terminates", subject, e.what());
          continue;
        }
        const nn::KernelDesc& last = ladder.at(ladder.len - 1);
        if (nn::has_fallbacks(op) && last.launches()) {
          add(out, "chain-terminates", subject,
              "chain ends in '" + std::string(last.label) +
                  "', not a host reference kernel — TrainGuard escalation "
                  "has no safe floor");
        }
        // A trainable dtype must get a native kernel at level 0 — training
        // entirely on the host reference would silently void every perf
        // claim.
        if (dtype_trainable(dt) && !ladder.at(0).launches() &&
            mode == nn::SystemMode::kHalfGnn) {
          add(out, "dtype-traits", subject,
              "trainable dtype dispatches straight to the reference");
        }
      }
    }
  }

  // --- policy-consistent over the whole table ------------------------------
  for (const nn::KernelDesc& m : nn::kernel_table()) {
    const std::string subject(m.label);
    if (m.policy != simt::ConflictPolicy::kNone) {
      if (!m.reducing) {
        add(out, "policy-consistent", subject,
            "staged conflict policy declared on a non-reducing kernel");
      }
      if (!m.launches()) {
        add(out, "policy-consistent", subject,
            "conflict policy declared on a host path that never launches");
      }
    }
    if (m.policy == simt::ConflictPolicy::kStagedMax && !m.max_reduce) {
      add(out, "policy-consistent", subject,
          "kStagedMax declared but the kernel has no max-reduce mode");
    }
    if (m.mean_scale == nn::MeanScale::kDiscretized && m.batch_cap <= 0) {
      add(out, "policy-consistent", subject,
          "discretized mean scaling declared without a batch cap");
    }
    if (!m.reducing && m.mean_scale != nn::MeanScale::kNone) {
      add(out, "policy-consistent", subject,
          "mean-scaling machinery declared on a non-reducing kernel");
    }
  }
  return out;
}

std::vector<LintIssue> lint_docs(std::string_view readme_text,
                                 std::string_view design_text) {
  std::vector<LintIssue> out;
  const auto mentions = [](std::string_view hay, std::string_view needle) {
    return hay.find(needle) != std::string_view::npos;
  };
  for (const GrammarTable& g : kGrammars) {
    if (!mentions(readme_text, g.env)) {
      add(out, "doc-grammar", std::string(g.env),
          "env var missing from README.md");
    }
    for (const std::string_view tok : g.tokens) {
      if (!mentions(readme_text, tok)) {
        add(out, "doc-grammar",
            std::string(g.env) + ":" + std::string(tok),
            "grammar token undocumented in README.md");
      }
      if (!mentions(design_text, tok)) {
        add(out, "doc-grammar",
            std::string(g.env) + ":" + std::string(tok),
            "grammar token undocumented in DESIGN.md");
      }
    }
  }
  return out;
}

std::vector<LintIssue> lint_all(const std::string& repo_root) {
  std::vector<LintIssue> out = lint_registry();
  const auto slurp = [&out](const std::string& path,
                            const char* what) -> std::string {
    std::ifstream in(path);
    if (!in) {
      add(out, "doc-grammar", what, "cannot open " + path);
      return {};
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string readme = slurp(repo_root + "/README.md", "README.md");
  const std::string design = slurp(repo_root + "/DESIGN.md", "DESIGN.md");
  if (!readme.empty() && !design.empty()) {
    std::vector<LintIssue> docs = lint_docs(readme, design);
    out.insert(out.end(), docs.begin(), docs.end());
  }
  return out;
}

}  // namespace hg::check
