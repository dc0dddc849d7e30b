// hgcheck: static precision-safety verifier CLI (DESIGN.md Sec. 15).
//
//   usage: hgcheck [--model gcn|gat|gin] [--dataset 1..16]
//                  [--mode float|half|halfgnn] [--dtype f32|f16|bf16|i8|b1]
//                  [--epochs N] [--hidden N] [--lr F] [--seed N]
//                  [--no-envelope] [--report=<path>|-] [--lint]
//                  [--docs-dir <path>] [--fig1c] [--allowlist <path>]
//                  [--grid]
//
//   Zero kernel launches: the verifier runs the trainer's own layer code
//   under an abstract backend and prints one verdict row per (site x
//   dispatch-chain entry). Exit status:
//     0  every active site SAFE or NEEDS-SCALING (or UNSAFE but allowlisted)
//     1  an active UNSAFE site not covered by the allowlist, or lint issues
//     2  bad usage: unknown flag, or a value outside what train_cli accepts
//        (whole numbers only; dataset 1..16, hidden >= 8, epochs >= 1,
//        lr finite and > 0, seed >= 0), or a dataset without labels
//
//   --report writes the halfgnn-check-v1 JSON report ('-' = stdout).
//   --lint runs the metadata linter (dtype traits, doc-grammar drift
//   against README.md/DESIGN.md under --docs-dir, default '.').
//   --fig1c prints the statically re-derived Fig. 1c verdict table for the
//   chosen model/dataset (one row per system x dtype cell).
//   --grid sweeps model x every dtype on the chosen dataset (the CI
//   check-gate entry point); --allowlist names a JSON file with an array
//   of "model/mode/dtype/site" strings allowed to stay UNSAFE.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/lint.hpp"
#include "graph/datasets.hpp"
#include "util/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--model gcn|gat|gin] [--dataset 1..16] "
               "[--mode float|half|halfgnn]\n"
               "  [--dtype f32|f16|bf16|i8|b1] [--epochs N] [--hidden N] "
               "[--lr F] [--seed N]\n"
               "  [--no-envelope] [--report=<path>|-] [--lint] "
               "[--docs-dir <path>] [--fig1c]\n"
               "  [--allowlist <path>] [--grid]\n",
               argv0);
  return 2;
}

// A numeric flag's value by util::flag_value's rules for its type; false
// when it does not parse.
template <class T>
bool number(const char* s, T& out) {
  const std::optional<T> v = hg::util::flag_value<T>(s);
  if (v) out = *v;
  return v.has_value();
}

// A numeric flag whose value does not parse or is out of its range:
// argv[i - 1] is the flag.
int not_a_number(char** argv, int i) {
  std::fprintf(stderr, "hgcheck: %s: invalid value '%s'\n", argv[i - 1],
               argv[i]);
  return usage(argv[0]);
}

struct Args {
  hg::nn::ModelKind model = hg::nn::ModelKind::kGcn;
  int dataset = 1;
  hg::nn::SystemMode mode = hg::nn::SystemMode::kHalfGnn;
  std::optional<hg::Dtype> dtype;
  int epochs = 4;
  int hidden = 64;
  float lr = 0.01f;
  std::uint64_t seed = 42;
  bool envelope = true;
  std::string report;
  bool lint = false;
  std::string docs_dir = ".";
  bool fig1c = false;
  std::string allowlist;
  bool grid = false;
};

// The ranges train_cli enforces too (the parsers already rejected a
// non-finite or non-positive lr and a negative seed), plus the labels
// hgcheck needs; "" when `a` is runnable.
std::string invalid_args(const Args& a) {
  if (a.dataset < 1 || a.dataset > hg::kNumDatasets) {
    return "--dataset must be in 1.." + std::to_string(hg::kNumDatasets);
  }
  const std::vector<hg::DatasetId> labeled = hg::labeled_dataset_ids();
  if (std::find(labeled.begin(), labeled.end(),
                static_cast<hg::DatasetId>(a.dataset)) == labeled.end()) {
    return "dataset " + std::to_string(a.dataset) +
           " has no labels/features to analyze";
  }
  if (a.hidden < 8) return "--hidden must be >= 8";
  if (a.epochs < 1) return "--epochs must be >= 1";
  return "";
}

std::vector<std::string> load_allowlist(const std::string& path) {
  std::vector<std::string> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "hgcheck: cannot open allowlist %s\n", path.c_str());
    return out;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const hg::obs::Json doc = hg::obs::Json::parse(ss.str());
  for (const hg::obs::Json& item : doc.items()) {
    out.push_back(item.as_string());
  }
  return out;
}

bool allowlisted(const std::vector<std::string>& allow,
                 const std::string& key) {
  for (const std::string& a : allow) {
    if (a == key) return true;
  }
  return false;
}

// Runs one config; prints the verdict summary; returns the number of
// active UNSAFE sites not covered by the allowlist.
int run_one(const hg::Dataset& data, const Args& a,
            std::optional<hg::Dtype> dtype,
            const std::vector<std::string>& allow, hg::obs::Json* reports) {
  hg::check::CheckConfig cfg;
  cfg.model = a.model;
  cfg.mode = a.mode;
  cfg.dtype = dtype;
  cfg.epochs = a.epochs;
  cfg.hidden = a.hidden;
  cfg.lr = a.lr;
  cfg.seed = a.seed;
  cfg.use_envelope = a.envelope;
  const hg::check::CheckResult r = hg::check::analyze(data, cfg);

  std::printf("%s %s %s on %s: %s\n", hg::nn::model_name(a.model),
              hg::nn::mode_name(a.mode),
              std::string(hg::dtype_name(r.requested)).c_str(),
              r.dataset.c_str(),
              std::string(hg::check::verdict_name(r.overall)).c_str());
  int bad = 0;
  for (const hg::check::SiteVerdict& v : r.verdicts) {
    if (!v.active || v.verdict == hg::check::Verdict::kSafe) continue;
    const std::string key = std::string(hg::nn::model_name(a.model)) + "/" +
                            hg::nn::mode_name(a.mode) + "/" +
                            std::string(hg::dtype_name(r.requested)) + "/" +
                            v.site;
    const bool allowed = v.verdict == hg::check::Verdict::kUnsafe &&
                         allowlisted(allow, key);
    std::printf("  %-13s %-22s %-22s fan-in %-6lld %s%s\n",
                std::string(hg::check::verdict_name(v.verdict)).c_str(),
                v.site.c_str(), v.kernel.c_str(), v.fan_in,
                v.reason.c_str(), allowed ? " [allowlisted]" : "");
    if (v.verdict == hg::check::Verdict::kUnsafe && !allowed) ++bad;
  }
  if (reports != nullptr) reports->push(hg::check::report_json(r));
  return bad;
}

// Runs the checks `a` asks for; returns the exit status.
int run(const Args& a) {
  int failures = 0;

  if (a.lint) {
    const std::vector<hg::check::LintIssue> issues =
        hg::check::lint_all(a.docs_dir);
    for (const hg::check::LintIssue& li : issues) {
      std::printf("LINT %-18s %-28s %s\n", li.rule.c_str(),
                  li.subject.c_str(), li.detail.c_str());
    }
    std::printf("lint: %zu issue(s)\n", issues.size());
    failures += static_cast<int>(issues.size());
  }

  const hg::Dataset data =
      hg::make_dataset(static_cast<hg::DatasetId>(a.dataset));

  if (a.fig1c) {
    std::printf("%s",
                hg::check::fig1c_table(data, a.model, a.epochs).c_str());
    return failures == 0 ? 0 : 1;
  }

  const std::vector<std::string> allow = load_allowlist(a.allowlist);
  hg::obs::Json reports = hg::obs::Json::array();

  if (a.grid) {
    for (const hg::Dtype dt : hg::all_dtypes()) {
      failures += run_one(data, a, dt, allow, &reports);
    }
  } else {
    failures += run_one(data, a, a.dtype, allow, &reports);
  }

  if (!a.report.empty()) {
    const hg::obs::Json& out_doc =
        (!a.grid && reports.size() == 1) ? reports.at(0) : reports;
    const std::string text = out_doc.dump(2);
    if (a.report == "-") {
      std::printf("%s\n", text.c_str());
    } else {
      std::ofstream out(a.report);
      out << text << "\n";
      std::printf("report written to %s\n", a.report.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hgcheck: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--model") {
      const auto* m = hg::util::find(hg::nn::kModelFlags, next("--model"));
      if (m == nullptr) return usage(argv[0]);
      a.model = m->value;
    } else if (arg == "--dataset") {
      if (!number(next("--dataset"), a.dataset)) return not_a_number(argv, i);
    } else if (arg == "--mode") {
      const auto* m = hg::util::find(hg::nn::kModeFlags, next("--mode"));
      if (m == nullptr) return usage(argv[0]);
      a.mode = m->value;
    } else if (arg == "--dtype") {
      a.dtype = hg::dtype_from_name(next("--dtype"));
      if (!a.dtype.has_value()) return usage(argv[0]);
    } else if (arg == "--epochs") {
      if (!number(next("--epochs"), a.epochs)) return not_a_number(argv, i);
    } else if (arg == "--hidden") {
      if (!number(next("--hidden"), a.hidden)) return not_a_number(argv, i);
    } else if (arg == "--lr") {
      if (!number(next("--lr"), a.lr)) return not_a_number(argv, i);
    } else if (arg == "--seed") {
      if (!number(next("--seed"), a.seed)) return not_a_number(argv, i);
    } else if (arg == "--no-envelope") {
      a.envelope = false;
    } else if (arg.rfind("--report=", 0) == 0) {
      a.report = arg.substr(9);
    } else if (arg == "--lint") {
      a.lint = true;
    } else if (arg == "--docs-dir") {
      a.docs_dir = next("--docs-dir");
    } else if (arg == "--fig1c") {
      a.fig1c = true;
    } else if (arg == "--allowlist") {
      a.allowlist = next("--allowlist");
    } else if (arg == "--grid") {
      a.grid = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (const std::string bad = invalid_args(a); !bad.empty()) {
    std::fprintf(stderr, "hgcheck: %s\n", bad.c_str());
    return usage(argv[0]);
  }

  try {
    return run(a);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
