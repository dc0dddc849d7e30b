// perf_diff: the perf-regression gate. Compares a freshly produced
// halfgnn-bench-v1 report against a committed baseline under per-column
// tolerances, and fails (exit 1) when a gated metric regressed beyond its
// allowance.
//
//   usage: perf_diff <tolerances.json> <baseline.json> <fresh.json>
//                    [<baseline2.json> <fresh2.json> ...]
//          perf_diff --selftest
//
// Tolerance file (halfgnn-perf-tolerances-v1):
//
//   { "schema": "halfgnn-perf-tolerances-v1",
//     "reports": {
//       "hostperf": {
//         "columns": { "modeled_ms": { "max_rel_increase": 0.001 } },
//         "summary": { ... same rule shape ... } } } }
//
// A cell regresses when  fresh > base * (1 + max_rel_increase) + abs_slack
// (abs_slack defaults to 0; it absorbs noise on near-zero baselines), or,
// under an absolute rule { "max_abs": L }, when  fresh > L. An absolute
// limit does not move when the baseline is regenerated, which suits the
// same-run ratios: each new baseline draw would otherwise shift a relative
// limit with it.
// Columns without a rule are not gated — by policy that is every
// wall-clock metric (host_ms, edges_per_s, speedup): those are
// machine-dependent, while modeled_ms comes off the simulated timeline and
// is bit-stable across hosts and HALFGNN_THREADS, so it gets a tight gate.
// Rows present only in the baseline (e.g. a "t=16" sweep point from a
// wider machine) warn instead of failing; improvements never fail.
//
// Exit codes: 0 ok, 1 regression, 2 usage / IO / schema error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace hg::bench {
namespace {

struct Rule {
  double max_rel_increase = 0.0;
  double abs_slack = 0.0;
  std::optional<double> max_abs;  // set: the limit, whatever the baseline
};

struct DiffStats {
  int checked = 0;
  int regressions = 0;
  int warnings = 0;
};

bool parse_rule(const obs::Json& j, Rule& out, std::string& err) {
  if (!j.is_object()) {
    err = "rule is not an object";
    return false;
  }
  if (const obs::Json* lim = j.find("max_abs"); lim != nullptr) {
    if (!lim->is_number() || !std::isfinite(lim->as_double())) {
      err = "\"max_abs\" must be a finite number";
      return false;
    }
    if (j.members().size() != 1) {
      err = "an absolute rule has \"max_abs\" and nothing else";
      return false;
    }
    out.max_abs = lim->as_double();
    return true;
  }
  const obs::Json* rel = j.find("max_rel_increase");
  if (rel == nullptr || !rel->is_number() || rel->as_double() < 0) {
    err = "rule needs a non-negative numeric \"max_rel_increase\" or a "
          "\"max_abs\"";
    return false;
  }
  out.max_rel_increase = rel->as_double();
  if (const obs::Json* abs = j.find("abs_slack"); abs != nullptr) {
    if (!abs->is_number() || abs->as_double() < 0) {
      err = "\"abs_slack\" must be a non-negative number";
      return false;
    }
    out.abs_slack = abs->as_double();
  }
  return true;
}

// Applies one rule to a (base, fresh) metric pair, printing a verdict line.
void check_metric(const std::string& what, double base, double fresh,
                  const Rule& rule, DiffStats& st) {
  ++st.checked;
  const double allowed =
      rule.max_abs ? *rule.max_abs
                   : base * (1.0 + rule.max_rel_increase) + rule.abs_slack;
  if (fresh > allowed) {
    ++st.regressions;
    std::printf("  REGRESSION %-46s base %.6g -> fresh %.6g (allowed %.6g)\n",
                what.c_str(), base, fresh, allowed);
  } else if (fresh < base) {
    std::printf("  improved   %-46s base %.6g -> fresh %.6g\n", what.c_str(),
                base, fresh);
  } else {
    std::printf("  ok         %-46s base %.6g -> fresh %.6g\n", what.c_str(),
                base, fresh);
  }
}

// Cells keyed by column for one row id.
const obs::Json* find_row(const obs::Json& doc, const std::string& id) {
  const obs::Json* rows = doc.find("rows");
  if (rows == nullptr) return nullptr;
  for (const auto& row : rows->items()) {
    const obs::Json* rid = row.find("id");
    if (rid != nullptr && rid->is_string() && rid->as_string() == id) {
      return &row;
    }
  }
  return nullptr;
}

// Diff one baseline/fresh report pair under `tol` (the tolerance entry for
// this report name, or nullptr when the report is not gated at all).
DiffStats diff_reports(const obs::Json& base, const obs::Json& fresh,
                       const obs::Json* tol) {
  DiffStats st;
  const std::string name = base.find("name")->as_string();
  std::printf("== %s ==\n", name.c_str());
  if (tol == nullptr) {
    std::printf("  (no tolerance entry; nothing gated)\n");
    return st;
  }
  const obs::Json* cols = tol->find("columns");
  const obs::Json* rows = base.find("rows");
  if (cols != nullptr && cols->is_object() && rows != nullptr) {
    for (const auto& row : rows->items()) {
      const std::string id = row.find("id")->as_string();
      const obs::Json* frow = find_row(fresh, id);
      if (frow == nullptr) {
        // Sweep rows depend on the machine (hardware_concurrency): their
        // absence is noise, not a regression.
        ++st.warnings;
        std::printf("  warn: row \"%s\" missing from fresh report\n",
                    id.c_str());
        continue;
      }
      const obs::Json* bcells = row.find("cells");
      const obs::Json* fcells = frow->find("cells");
      for (const auto& kv : cols->members()) {
        Rule rule;
        std::string err;
        if (!parse_rule(kv.second, rule, err)) continue;  // validated earlier
        const obs::Json* bv =
            bcells != nullptr ? bcells->find(kv.first) : nullptr;
        const obs::Json* fv =
            fcells != nullptr ? fcells->find(kv.first) : nullptr;
        // Null cells mean "not measured" (see obs/report.cpp); skip.
        if (bv == nullptr || fv == nullptr || !bv->is_number() ||
            !fv->is_number()) {
          continue;
        }
        check_metric(id + " / " + kv.first, bv->as_double(), fv->as_double(),
                     rule, st);
      }
    }
  }
  const obs::Json* sum_rules = tol->find("summary");
  const obs::Json* bsum = base.find("summary");
  const obs::Json* fsum = fresh.find("summary");
  if (sum_rules != nullptr && sum_rules->is_object() && bsum != nullptr &&
      fsum != nullptr) {
    for (const auto& kv : sum_rules->members()) {
      Rule rule;
      std::string err;
      if (!parse_rule(kv.second, rule, err)) continue;
      const obs::Json* bv = bsum->find(kv.first);
      const obs::Json* fv = fsum->find(kv.first);
      if (bv == nullptr || fv == nullptr || !bv->is_number() ||
          !fv->is_number()) {
        continue;
      }
      check_metric("summary / " + kv.first, bv->as_double(), fv->as_double(),
                   rule, st);
    }
  }
  return st;
}

std::string validate_tolerances(const obs::Json& doc) {
  if (!doc.is_object()) return "tolerances: not an object";
  const obs::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "halfgnn-perf-tolerances-v1") {
    return "tolerances: schema is not halfgnn-perf-tolerances-v1";
  }
  const obs::Json* reports = doc.find("reports");
  if (reports == nullptr || !reports->is_object()) {
    return "tolerances: missing \"reports\" object";
  }
  for (const auto& rep : reports->members()) {
    if (!rep.second.is_object()) {
      return "tolerances: report \"" + rep.first + "\" is not an object";
    }
    for (const char* section : {"columns", "summary"}) {
      const obs::Json* s = rep.second.find(section);
      if (s == nullptr) continue;
      if (!s->is_object()) {
        return "tolerances: \"" + rep.first + "." + section +
               "\" is not an object";
      }
      for (const auto& kv : s->members()) {
        Rule rule;
        std::string err;
        if (!parse_rule(kv.second, rule, err)) {
          return "tolerances: " + rep.first + "." + section + "." + kv.first +
                 ": " + err;
        }
      }
    }
  }
  return {};
}

int fail_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <tolerances.json> <baseline.json> <fresh.json> "
               "[<baseline2> <fresh2> ...]\n"
               "       %s --selftest\n",
               argv0, argv0);
  return 2;
}

bool load_json(const std::string& path, obs::Json& out, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    out = obs::Json::parse(buf.str());
  } catch (const std::exception& e) {
    err = path + ": " + e.what();
    return false;
  }
  return true;
}

// --selftest: the gate must stay green on identical / within-tolerance
// inputs and must go red when a gated metric is perturbed past its
// allowance — exercised in-memory so CI proves the gate can actually fail.
int selftest() {
  // Fresh-report variants are built from a template: {M} = the gated
  // "spmm profiled" modeled_ms, {H} = its ungated host_ms, {S} = the
  // loosely gated summary metric, {R} = the same-run ratio under an
  // absolute limit, {TAIL} = the machine-dependent t=16 row.
  const auto make_report = [](const char* m, const char* h, const char* s,
                              bool with_tail, const char* r = "0.1") {
    std::string src = R"({
      "schema": "halfgnn-bench-v1", "name": "hostperf", "meta": {},
      "columns": ["host_ms", "modeled_ms"],
      "rows": [
        {"id": "spmm profiled", "cells": {"host_ms": )";
    src += h;
    src += R"(, "modeled_ms": )";
    src += m;
    src += R"(}},
        {"id": "spmm train", "cells": {"host_ms": 8.0, "modeled_ms": null}})";
    if (with_tail) {
      src += R"(,
        {"id": "gat t=16", "cells": {"host_ms": 1.0, "modeled_ms": 0.5}})";
    }
    src += R"(],
      "summary": {"spmm_halfgnn_profiled_host_ms": )";
    src += s;
    src += R"(, "spmm_halfgnn_train_simd_ratio": )";
    src += r;
    src += R"(}, "kernels": {}
    })";
    return obs::Json::parse(src);
  };
  const obs::Json tol = obs::Json::parse(R"({
    "schema": "halfgnn-perf-tolerances-v1",
    "reports": {
      "hostperf": {
        "columns": {"modeled_ms": {"max_rel_increase": 0.001}},
        "summary": {
          "spmm_halfgnn_profiled_host_ms": {"max_rel_increase": 10.0},
          "spmm_halfgnn_train_simd_ratio": {"max_abs": 0.4}
        }
      }
    }
  })");
  if (auto e = validate_tolerances(tol); !e.empty()) {
    std::fprintf(stderr, "selftest: %s\n", e.c_str());
    return 2;
  }
  const obs::Json* rules = tol.find("reports")->find("hostperf");
  const obs::Json base = make_report("2.0", "10.0", "10.0", true);

  // 1. Identical reports: green, and both gated cells + the two summary
  //    rules actually ran (null cells and ungated columns are skipped).
  const DiffStats same = diff_reports(base, base, rules);
  if (same.regressions != 0 || same.checked != 4) {
    std::fprintf(stderr, "selftest: identical diff checked=%d regressions=%d\n",
                 same.checked, same.regressions);
    return 2;
  }

  // 2. Perturb a gated metric past tolerance: must go red.
  const DiffStats red =
      diff_reports(base, make_report("2.5", "10.0", "10.0", true), rules);
  if (red.regressions != 1) {
    std::fprintf(stderr, "selftest: perturbed diff regressions=%d (want 1)\n",
                 red.regressions);
    return 2;
  }

  // 3. Perturb only wall-clock metrics: ungated column ignored, the loose
  //    summary gate absorbs a 2.5x swing — still green.
  const DiffStats green =
      diff_reports(base, make_report("2.0", "500.0", "25.0", true), rules);
  if (green.regressions != 0) {
    std::fprintf(stderr, "selftest: noisy diff regressions=%d (want 0)\n",
                 green.regressions);
    return 2;
  }

  // 4. A baseline-only sweep row warns instead of failing.
  const DiffStats warn =
      diff_reports(base, make_report("2.0", "10.0", "10.0", false), rules);
  if (warn.regressions != 0 || warn.warnings != 1) {
    std::fprintf(stderr, "selftest: narrow diff warnings=%d regressions=%d\n",
                 warn.warnings, warn.regressions);
    return 2;
  }

  // 5. An absolute limit ignores the baseline: 3.5x a baseline of 0.1 is
  //    green under a 0.4 limit, and a baseline draw of 0.9 above the limit
  //    does not carry it up.
  struct AbsCase {
    const char* base;
    const char* fresh;
    int regressions;
  };
  for (const AbsCase& c : {AbsCase{"0.1", "0.35", 0}, AbsCase{"0.1", "0.45", 1},
                           AbsCase{"0.9", "0.35", 0},
                           AbsCase{"0.9", "0.45", 1}}) {
    const DiffStats d =
        diff_reports(make_report("2.0", "10.0", "10.0", true, c.base),
                     make_report("2.0", "10.0", "10.0", true, c.fresh), rules);
    if (d.regressions != c.regressions) {
      std::fprintf(stderr,
                   "selftest: max_abs base %s fresh %s regressions=%d "
                   "(want %d)\n",
                   c.base, c.fresh, d.regressions, c.regressions);
      return 2;
    }
  }

  // 6. An absolute rule takes no relative terms.
  const obs::Json mixed = obs::Json::parse(R"({
    "schema": "halfgnn-perf-tolerances-v1",
    "reports": {"hostperf": {"summary": {
      "r": {"max_abs": 0.4, "max_rel_increase": 1.0}}}}
  })");
  if (validate_tolerances(mixed).empty()) {
    std::fprintf(stderr, "selftest: a mixed absolute rule was accepted\n");
    return 2;
  }

  std::printf("perf_diff: selftest OK (gate goes red on perturbation)\n");
  return 0;
}

int run(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return selftest();
  if (argc < 4 || (argc - 2) % 2 != 0) return fail_usage(argv[0]);

  obs::Json tol;
  std::string err;
  if (!load_json(argv[1], tol, err)) {
    std::fprintf(stderr, "perf_diff: %s\n", err.c_str());
    return 2;
  }
  if (auto e = validate_tolerances(tol); !e.empty()) {
    std::fprintf(stderr, "perf_diff: %s\n", e.c_str());
    return 2;
  }
  const obs::Json* reports = tol.find("reports");

  DiffStats total;
  for (int i = 2; i + 1 < argc; i += 2) {
    obs::Json base, fresh;
    if (!load_json(argv[i], base, err) ||
        !load_json(argv[i + 1], fresh, err)) {
      std::fprintf(stderr, "perf_diff: %s\n", err.c_str());
      return 2;
    }
    for (const obs::Json* doc : {&base, &fresh}) {
      if (auto e = obs::validate_bench_report(*doc); !e.empty()) {
        std::fprintf(stderr, "perf_diff: %s\n", e.c_str());
        return 2;
      }
    }
    const std::string bname = base.find("name")->as_string();
    if (bname != fresh.find("name")->as_string()) {
      std::fprintf(stderr,
                   "perf_diff: report names differ (%s vs %s) — wrong pair?\n",
                   bname.c_str(), fresh.find("name")->as_string().c_str());
      return 2;
    }
    const DiffStats st = diff_reports(base, fresh, reports->find(bname));
    total.checked += st.checked;
    total.regressions += st.regressions;
    total.warnings += st.warnings;
  }
  std::printf("perf_diff: %d metrics checked, %d regressions, %d warnings\n",
              total.checked, total.regressions, total.warnings);
  return total.regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace hg::bench

int main(int argc, char** argv) { return hg::bench::run(argc, argv); }
