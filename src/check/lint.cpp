#include "check/lint.hpp"

#include <fstream>
#include <sstream>

#include "amp/amp.hpp"
#include "half/dtype.hpp"
#include "obs/prof/prof.hpp"
#include "simt/fault.hpp"
#include "simt/sanitizer.hpp"
#include "simt/simd.hpp"

namespace hg::check {

namespace {

void add(std::vector<LintIssue>& out, std::string rule, std::string subject,
         std::string detail) {
  out.push_back({std::move(rule), std::move(subject), std::move(detail)});
}

}  // namespace

std::vector<GrammarTable> grammar_tables() {
  const auto tokens = [](const auto& table) {
    std::vector<std::string_view> out;
    for (const auto& row : table) out.push_back(row.token);
    return out;
  };
  return {
      {obs::prof::ProfConfig::kEnv, tokens(obs::prof::kProfTokens)},
      {simt::SanitizerConfig::kEnv, tokens(simt::kSanTokens)},
      {simt::FaultConfig::kEnv, tokens(simt::FaultConfig::kinds())},
      {simt::simd::kEnv, tokens(simt::simd::kPathTokens)},
  };
}

std::vector<LintIssue> lint_registry() {
  std::vector<LintIssue> out;
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
  return out;
}

std::vector<LintIssue> lint_docs(std::string_view readme_text,
                                 std::string_view design_text) {
  std::vector<LintIssue> out;
  const auto mentions = [](std::string_view hay, std::string_view needle) {
    return hay.find(needle) != std::string_view::npos;
  };
  for (const GrammarTable& g : grammar_tables()) {
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
