// hgcheck metadata linter: dtype-trait consistency and drift checks
// between the machine grammar tables and the prose docs (README.md /
// DESIGN.md). Pure host checks, zero launches. The kernel table's own
// invariants (chains end at the reference, rows name their launches) are
// static_asserts in nn/kernel_table.cpp.
//
// Rules (each produces LintIssue rows; an empty vector = clean):
//
//   dtype-traits         dtype trait rows are consistent: unique non-empty
//                        names, loss scaling implies trainable
//   doc-grammar          every grammar token of HALFGNN_PROF /
//                        HALFGNN_SANITIZE / HALFGNN_FAULTS appears in both
//                        README.md and DESIGN.md, and the env var names
//                        appear in the README flag table. Doc drift fails
//                        CI.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hg::check {

struct LintIssue {
  std::string rule;     // "dtype-traits" | "doc-grammar"
  std::string subject;  // what failed, e.g. "HALFGNN_FAULTS:stuck"
  std::string detail;
};

// One user-facing spec grammar: the env var and its token vocabulary, read
// from the parsers' own tables (ProfConfig, SanitizerConfig, FaultConfig,
// simd::kPathTokens).
struct GrammarTable {
  std::string_view env;
  std::vector<std::string_view> tokens;
};

std::vector<GrammarTable> grammar_tables();

// dtype-traits over the dtype trait table.
std::vector<LintIssue> lint_registry();

// doc-grammar over already-loaded doc text.
std::vector<LintIssue> lint_docs(std::string_view readme_text,
                                 std::string_view design_text);

// Convenience: registry rules + doc rules with README.md/DESIGN.md read
// from `repo_root`. Missing doc files are themselves lint failures.
std::vector<LintIssue> lint_all(const std::string& repo_root);

}  // namespace hg::check
