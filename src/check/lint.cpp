#include "check/lint.hpp"

#include <array>
#include <fstream>
#include <sstream>

#include "amp/amp.hpp"
#include "half/dtype.hpp"

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

void add(std::vector<LintIssue>& out, std::string rule, std::string subject,
         std::string detail) {
  out.push_back({std::move(rule), std::move(subject), std::move(detail)});
}

}  // namespace

std::span<const GrammarTable> grammar_tables() { return kGrammars; }

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
