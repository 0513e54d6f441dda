// hgcheck metadata linter: structural invariants of the kernel table
// (nn/kernel_table.hpp) and drift checks between the machine grammar tables and the
// prose docs (README.md / DESIGN.md). Pure host checks, zero launches.
//
// Rules (each produces LintIssue rows; an empty vector = clean):
//
//   chain-terminates     every (op x mode x dtype) ladder is non-empty,
//                        and every spmm/sddmm ladder ends in a host
//                        reference kernel
//   dtype-traits         dtype trait rows are consistent: unique non-empty
//                        names, loss-scaling implies trainable, trainable
//                        dtypes get a native (non-reference) level-0 kernel
//   policy-consistent    declared ConflictPolicy rows make sense against
//                        the declared reduction semantics: a staged policy
//                        requires a reducing device kernel, kStagedMax
//                        requires max-reduce support, elementwise kernels
//                        declare kNone. (Whether the *code* matches the
//                        declaration is the sanitizer's dynamic job — race
//                        mode flags any store outside a declared policy
//                        window; lint keeps the static table honest.)
//   doc-grammar          every grammar token of HALFGNN_PROF /
//                        HALFGNN_SANITIZE / HALFGNN_FAULTS appears in both
//                        README.md and DESIGN.md, and the env var names
//                        appear in the README flag table. Doc drift fails
//                        CI.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hg::check {

struct LintIssue {
  std::string rule;     // "chain-terminates" | "dtype-traits" | ...
  std::string subject;  // what failed, e.g. "spmm/HalfGNN/f16"
  std::string detail;
};

// One user-facing spec grammar: the env var, its token vocabulary, and
// sample specs the real parser must accept (tests round-trip them through
// ProfConfig/SanitizerConfig/FaultConfig::parse so this table cannot drift
// from the parsers either).
struct GrammarTable {
  std::string_view env;
  std::span<const std::string_view> tokens;
  std::span<const std::string_view> samples;
};

std::span<const GrammarTable> grammar_tables();

// Kernel-table rules (chain-terminates, dtype-traits, policy-consistent).
std::vector<LintIssue> lint_registry();

// doc-grammar over already-loaded doc text.
std::vector<LintIssue> lint_docs(std::string_view readme_text,
                                 std::string_view design_text);

// Convenience: registry rules + doc rules with README.md/DESIGN.md read
// from `repo_root`. Missing doc files are themselves lint failures.
std::vector<LintIssue> lint_all(const std::string& repo_root);

}  // namespace hg::check
