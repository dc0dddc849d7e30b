// hgcheck tests: Dtype-lattice exhaustiveness (every lattice point has a
// transfer-function entry, a dispatch chain, and a trait row), the
// metadata linter, the star-hub verdict regression (Fig. 1c statically:
// DGL-half UNSAFE, HalfGNN NEEDS-SCALING with applied factor == hub
// degree, bf16/f32 SAFE), the halfgnn-check-v1 report schema, and the
// drift check: every GEMM a traced training epoch runs has an active row.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "check/lint.hpp"
#include "graph/generators.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "nn/kernel_table.hpp"
#include "nn/trainer.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"
#include "simt/fault.hpp"
#include "simt/sanitizer.hpp"
#include "simt/simd.hpp"
#include "util/rng.hpp"

namespace hg::check {
namespace {

// ---------------------------------------------------------------------------
// Synthetic labeled datasets
// ---------------------------------------------------------------------------

Dataset dense_cluster_dataset(vid_t n, int k, eid_t m, int feat,
                              std::uint64_t seed) {
  Dataset d;
  d.labeled = true;
  d.name = "cluster-test";
  d.feat_dim = feat;
  d.num_classes = k;
  Rng rng(seed);
  Coo raw = sbm(n, k, m, 0.9, rng, d.labels);
  d.csr = symmetrize(coo_to_csr(raw));
  d.csr_t = d.csr;
  d.coo = csr_to_coo(d.csr);
  const auto fu = static_cast<std::size_t>(feat);
  d.features.resize(static_cast<std::size_t>(n) * fu);
  d.train_mask.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    const auto vu = static_cast<std::size_t>(v);
    for (std::size_t j = 0; j < fu; ++j) {
      d.features[vu * fu + j] = static_cast<float>(rng.next_normal());
    }
    d.train_mask[vu] = (v % 5) < 3 ? 1 : 0;
  }
  return d;
}

// One hub of degree `leaves`, every leaf also chained to its neighbor so no
// row is empty, large constant features: the Fig. 1c overflow shape.
Dataset star_hub_dataset(vid_t leaves, int feat, float feature_value) {
  Dataset d;
  d.labeled = true;
  d.name = "star-hub-test";
  d.feat_dim = feat;
  d.num_classes = 4;
  Coo raw;
  raw.num_vertices = leaves + 1;
  for (vid_t v = 1; v <= leaves; ++v) {
    raw.row.push_back(0);
    raw.col.push_back(v);
  }
  d.csr = symmetrize(coo_to_csr(raw));
  d.csr_t = d.csr;
  d.coo = csr_to_coo(d.csr);
  const auto fu = static_cast<std::size_t>(feat);
  d.features.assign(static_cast<std::size_t>(leaves + 1) * fu,
                    feature_value);
  d.labels.resize(static_cast<std::size_t>(leaves + 1));
  d.train_mask.assign(static_cast<std::size_t>(leaves + 1), 1);
  for (vid_t v = 0; v <= leaves; ++v) {
    d.labels[static_cast<std::size_t>(v)] = static_cast<int>(v) % 4;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Exhaustiveness over the precision lattice (satellite: every Dtype value
// has a transfer entry, a dispatch chain, and a trait row)
// ---------------------------------------------------------------------------

static_assert(kNumDtypes == 5,
              "precision lattice changed: extend hgcheck's transfer "
              "functions, kernel metadata, and these tests");
static_assert(all_dtypes().size() == static_cast<std::size_t>(kNumDtypes));

TEST(CheckExhaustive, EveryDtypeHasTraitRowAndRange) {
  for (const Dtype dt : all_dtypes()) {
    EXPECT_FALSE(dtype_name(dt).empty());
    const DtypeRange r = dtype_range(dt);
    EXPECT_GT(r.max_finite, 0.0);
    EXPECT_GT(r.min_normal, 0.0);
    EXPECT_GT(r.min_subnormal, 0.0);
    EXPECT_LT(r.min_subnormal, r.min_normal);
  }
  // Only f16 can overflow a GNN-sized reduction in storage.
  EXPECT_TRUE(dtype_range(Dtype::kF16).can_overflow);
  EXPECT_FALSE(dtype_range(Dtype::kF32).can_overflow);
  EXPECT_FALSE(dtype_range(Dtype::kBf16).can_overflow);
}

TEST(CheckExhaustive, EveryDtypeHasDispatchChainsWithMetadata) {
  // hgcheck models every site from the row the runtime dispatches: each
  // (op, mode, dtype) must resolve to rows that say what they store and,
  // for device kernels, what they launch.
  const nn::SystemMode modes[] = {nn::SystemMode::kDglFloat,
                                  nn::SystemMode::kDglHalf,
                                  nn::SystemMode::kHalfGnn};
  for (int o = 0; o < nn::kNumOps; ++o) {
    const auto op = static_cast<nn::Op>(o);
    for (const nn::SystemMode mode : modes) {
      for (const Dtype dt : all_dtypes()) {
        const nn::Chain& chain = nn::dispatch_chain(op, mode, dt);
        ASSERT_GE(chain.len, 1) << nn::op_name(op) << "/"
                                << nn::mode_name(mode) << "/"
                                << dtype_name(dt);
        for (int L = 0; L < chain.len; ++L) {
          const nn::KernelRow& row = nn::kernel_row(chain.at(L).kernel);
          EXPECT_FALSE(row.label.empty());
          // Stored values land in an MTensor: f32, f16 or bf16.
          EXPECT_TRUE(dtype_trainable(row.storage)) << row.label;
        }
        // The guard's last resort for an escalating op is the host
        // reference; an edge op's site is named by its one launch.
        const nn::KernelRow& last =
            nn::kernel_row(chain.at(chain.len - 1).kernel);
        if (nn::escalates(op)) {
          EXPECT_FALSE(last.launches()) << last.label;
        } else {
          EXPECT_EQ(last.launched().size(), 1u) << last.label;
        }
      }
    }
  }
}

TEST(CheckExhaustive, EveryDtypeHasATransferFunctionEntry) {
  // analyze() must complete for every lattice point x every model — a new
  // dtype with no transfer modeling throws or dies here.
  const Dataset d = dense_cluster_dataset(60, 4, 200, 16, 7);
  for (const Dtype dt : all_dtypes()) {
    for (const nn::ModelKind m : {nn::ModelKind::kGcn, nn::ModelKind::kGat,
                                  nn::ModelKind::kGin}) {
      CheckConfig cfg;
      cfg.model = m;
      cfg.dtype = dt;
      cfg.epochs = 2;
      cfg.hidden = 16;
      const CheckResult r = analyze(d, cfg);
      EXPECT_EQ(r.requested, dt);
      EXPECT_FALSE(r.verdicts.empty());
      // Non-trainable lattice points train in f32 and append a PTQ forward.
      EXPECT_EQ(r.train_dtype, dtype_trainable(dt) ? dt : Dtype::kF32);
    }
  }
}

TEST(CheckExhaustive, MetaTableLaunchNamesNonEmptyForDeviceKernels) {
  // The soundness bridge maps each observed LaunchDesc name back to one
  // row's prediction, so no launch name may belong to two rows.
  std::map<std::string_view, std::string_view> owner;
  for (int k = 0; k < nn::kNumKernels; ++k) {
    const nn::KernelRow& row = nn::kernel_row(static_cast<nn::Kernel>(k));
    EXPECT_EQ(row.launches(), row.accum != nn::Accum::kF64Host) << row.label;
    for (const std::string_view name : row.launched()) {
      EXPECT_FALSE(name.empty()) << row.label;
      const auto [it, fresh] = owner.emplace(name, row.label);
      EXPECT_TRUE(fresh) << name << " launched by " << it->second << " and "
                         << row.label;
    }
  }
}

TEST(CheckExhaustive, HalfgnnBatchCapMatchesKernelGeometry) {
  // hgcheck bounds the discretized mean with the kernel's own segment.
  // feat >= 64: one sub-warp covers the row, 128-edge batches.
  EXPECT_EQ(kernels::halfgnn_segment_edges(64), 128);
  EXPECT_EQ(kernels::halfgnn_segment_edges(256), 128);
  // feat 8 -> half_f 4 -> 8 sub-warps sharing 128 edges.
  EXPECT_EQ(kernels::halfgnn_segment_edges(8), 16);
  // feat 2 -> one lane per edge, 32 sub-warps of 4 edges.
  EXPECT_EQ(kernels::halfgnn_segment_edges(2), 4);
}

// ---------------------------------------------------------------------------
// Metadata linter
// ---------------------------------------------------------------------------

TEST(CheckLint, RegistryIsClean) {
  const std::vector<LintIssue> issues = lint_registry();
  for (const LintIssue& li : issues) {
    ADD_FAILURE() << li.rule << " " << li.subject << ": " << li.detail;
  }
}

TEST(CheckLint, GrammarTablesMatchTheRealParsers) {
  // The lint reads the parsers' own tables: every token must parse alone
  // to its own bits, and every fault kind's sample to one clause of that
  // kind and nothing else.
  for (const auto& t : obs::prof::kProfTokens) {
    EXPECT_EQ(obs::prof::ProfConfig::parse(t.token).analyzers, t.value)
        << t.token;
  }
  for (const auto& t : simt::kSanTokens) {
    EXPECT_EQ(simt::SanitizerConfig::parse(t.token).checks, t.value)
        << t.token;
  }
  for (const simt::FaultKind& k : simt::FaultConfig::kinds()) {
    const simt::FaultConfig cfg = simt::FaultConfig::parse(
        std::string(k.token) + ":" + std::string(k.sample));
    const std::map<std::string_view, std::size_t> clauses = {
        {"bitflip", cfg.bitflips.size()},
        {"launchfail", cfg.launchfails.size()},
        {"overflow", cfg.overflows.size()},
        {"stuck", cfg.stucks.size()},
        {"torncrash", cfg.torncrashes.size()}};
    EXPECT_TRUE(clauses.contains(k.token)) << k.token;
    for (const auto& [kind, n] : clauses) {
      EXPECT_EQ(n, kind == k.token ? 1u : 0u) << k.token << " -> " << kind;
    }
  }
  const std::vector<GrammarTable> tables = grammar_tables();
  ASSERT_EQ(tables.size(), 4u);
  EXPECT_EQ(tables[0].tokens.size(), std::size(obs::prof::kProfTokens));
  EXPECT_EQ(tables[1].tokens.size(), std::size(simt::kSanTokens));
  EXPECT_EQ(tables[2].tokens.size(), simt::FaultConfig::kinds().size());
  EXPECT_EQ(tables[3].tokens.size(), std::size(simt::simd::kPathTokens));
}

TEST(CheckLint, DocDriftIsDetected) {
  std::string readme;
  std::string design;
  for (const GrammarTable& g : grammar_tables()) {
    readme += std::string(g.env) + " ";
    for (const std::string_view tok : g.tokens) {
      readme += std::string(tok) + " ";
      design += std::string(tok) + " ";
    }
  }
  EXPECT_TRUE(lint_docs(readme, design).empty());
  // Drop one fault clause from the README: drift must be flagged.
  std::string broken = readme;
  const std::size_t pos = broken.find("torncrash");
  ASSERT_NE(pos, std::string::npos);
  broken.erase(pos, 9);
  const std::vector<LintIssue> issues = lint_docs(broken, design);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].rule, "doc-grammar");
}

TEST(CheckLint, RealDocsAreInSync) {
  // CI runs hgcheck --lint from the repo root; replicate here so a doc
  // edit that drops a grammar token fails the suite even without CI.
  const char* root = std::getenv("HALFGNN_REPO_ROOT");
#ifdef HALFGNN_SOURCE_DIR
  if (root == nullptr) root = HALFGNN_SOURCE_DIR;
#endif
  const std::vector<LintIssue> issues =
      lint_all(root != nullptr ? root : ".");
  for (const LintIssue& li : issues) {
    // Missing doc files only means the test runs outside the repo root —
    // that is CI's job to pin; token drift inside existing files fails.
    if (li.detail.rfind("cannot open", 0) == 0) continue;
    ADD_FAILURE() << li.rule << " " << li.subject << ": " << li.detail;
  }
}

// ---------------------------------------------------------------------------
// Star-hub verdicts (the paper's Fig. 1c shape, statically)
// ---------------------------------------------------------------------------

TEST(CheckVerdict, HubMeanAggregationSeparatesTheThreeRegimes) {
  const Dataset d = star_hub_dataset(3000, 16, 8.0f);
  const vid_t hub_deg = d.csr.degree(0);
  ASSERT_EQ(hub_deg, 3000u);

  // DGL-half: post-norm mean, running sum ~ 3000 * big > 65504 -> UNSAFE.
  CheckConfig half_cfg;
  half_cfg.model = nn::ModelKind::kGcn;
  half_cfg.mode = nn::SystemMode::kDglHalf;
  half_cfg.epochs = 2;
  half_cfg.hidden = 16;
  const CheckResult half_r = analyze(d, half_cfg);
  EXPECT_EQ(half_r.overall, Verdict::kUnsafe);
  bool saw_unsafe_spmm = false;
  for (const SiteVerdict& v : half_r.verdicts) {
    if (v.active && v.op == "spmm" && v.site == "L1.fwd.spmm") {
      EXPECT_EQ(v.verdict, Verdict::kUnsafe);
      EXPECT_EQ(v.protection, "postnorm");
      saw_unsafe_spmm = true;
    }
  }
  EXPECT_TRUE(saw_unsafe_spmm);

  // HalfGNN: discretized mean keeps partials bounded by the 128-edge
  // segment; verdict NEEDS-SCALING, applied factor == the hub degree (the
  // inv_deg(r) divisor the runtime flushes with at that row).
  CheckConfig hg_cfg = half_cfg;
  hg_cfg.mode = nn::SystemMode::kHalfGnn;
  const CheckResult hg_r = analyze(d, hg_cfg);
  EXPECT_EQ(hg_r.overall, Verdict::kNeedsScaling);
  bool saw_discretized = false;
  for (const SiteVerdict& v : hg_r.verdicts) {
    if (v.active && v.site == "L1.fwd.spmm" && v.kernel == "spmm_halfgnn") {
      EXPECT_EQ(v.verdict, Verdict::kNeedsScaling);
      EXPECT_EQ(v.protection, "discretized");
      EXPECT_EQ(static_cast<vid_t>(v.applied_factor), hub_deg);
      EXPECT_GT(v.needed_factor, 0.0);
      saw_discretized = true;
    }
  }
  EXPECT_TRUE(saw_discretized);

  // bf16 / f32: the f32-range exponent never overflows here -> SAFE.
  for (const Dtype dt : {Dtype::kBf16, Dtype::kF32}) {
    CheckConfig safe_cfg = hg_cfg;
    safe_cfg.dtype = dt;
    EXPECT_EQ(analyze(d, safe_cfg).overall, Verdict::kSafe)
        << dtype_name(dt);
  }
}

TEST(CheckVerdict, Int8HeadroomAndBinaryPopcountAreSafeOnTheHub) {
  const Dataset d = star_hub_dataset(3000, 16, 8.0f);
  for (const Dtype dt : {Dtype::kI8, Dtype::kB1}) {
    CheckConfig cfg;
    cfg.model = nn::ModelKind::kGcn;
    cfg.dtype = dt;
    cfg.epochs = 2;
    cfg.hidden = 16;
    const CheckResult r = analyze(d, cfg);
    bool saw_ptq_spmm = false;
    for (const SiteVerdict& v : r.verdicts) {
      if (v.active && v.op == "spmm" &&
          (v.kernel == "spmm_int8" || v.kernel == "spmm_binary")) {
        EXPECT_EQ(v.verdict, Verdict::kSafe) << v.kernel;
        EXPECT_TRUE(v.protection == "int32" || v.protection == "popcount");
        saw_ptq_spmm = true;
      }
    }
    EXPECT_TRUE(saw_ptq_spmm) << dtype_name(dt);
  }
}

// GAT's backward SpMM over the attention weights is A^T x: the runtime
// permutes the weights through the reverse-edge permutation, then runs an
// ordinary SpMM, and the concrete track must evaluate the same product.
// Swapping source and destination as well computes A x, whose largest value
// on reddit-sim's second layer is 73x below the runtime's (past the 64x
// grad_slack envelope), and the rank-1 updates of the attention vectors
// then read SAFE.
TEST(CheckVerdict, GatTransposedSpmmIsTheRuntimeProduct) {
  const Dataset reddit = make_dataset(DatasetId::kReddit);
  CheckConfig cfg;
  cfg.model = nn::ModelKind::kGat;
  cfg.mode = nn::SystemMode::kHalfGnn;
  const CheckResult r = analyze(reddit, cfg);
  for (const std::string site : {"L2.bwd.rank1.al", "L2.bwd.rank1.ar"}) {
    const SiteVerdict* axpby = nullptr;
    for (const SiteVerdict& v : r.verdicts) {
      if (v.active && v.site == site && v.op == "axpby") axpby = &v;
    }
    ASSERT_NE(axpby, nullptr) << site;
    EXPECT_EQ(axpby->kernel, "host_axpby_f16") << site;
    EXPECT_EQ(axpby->verdict, Verdict::kNeedsScaling)
        << site << ": " << axpby->reason;
  }
}

TEST(CheckVerdict, PureWorstCaseModeIsMonotonicallyMorePessimistic) {
  const Dataset d = dense_cluster_dataset(80, 4, 300, 16, 3);
  CheckConfig env_cfg;
  env_cfg.epochs = 2;
  env_cfg.hidden = 16;
  CheckConfig wc_cfg = env_cfg;
  wc_cfg.use_envelope = false;
  const CheckResult env_r = analyze(d, env_cfg);
  const CheckResult wc_r = analyze(d, wc_cfg);
  // Same sites either way; worst-case verdicts are never better.
  ASSERT_EQ(env_r.verdicts.size(), wc_r.verdicts.size());
  for (std::size_t i = 0; i < env_r.verdicts.size(); ++i) {
    EXPECT_GE(static_cast<int>(wc_r.verdicts[i].verdict),
              static_cast<int>(env_r.verdicts[i].verdict))
        << env_r.verdicts[i].site;
  }
  // And the worst-case intervals dominate the envelope intervals.
  for (const auto& [name, p] : env_r.tensors) {
    const PredInterval* wp = wc_r.tensor(name);
    ASSERT_NE(wp, nullptr) << name;
    EXPECT_GE(wp->hi_exp, p.hi_exp) << name;
  }
}

// ---------------------------------------------------------------------------
// PredInterval containment primitive
// ---------------------------------------------------------------------------

TEST(CheckInterval, ContainsFlagsObservedViolations) {
  PredInterval p;
  p.hi_exp = 4;
  p.may_overflow = false;
  p.may_nan = false;
  obs::prof::ExpHist h;
  h.add_float(8.0f);   // exponent 3: inside
  EXPECT_EQ(p.contains(h), "");
  h.add_float(64.0f);  // exponent 6: above hi_exp 4
  EXPECT_NE(p.contains(h), "");
  obs::prof::ExpHist inf;
  inf.add_float(std::numeric_limits<float>::infinity());
  EXPECT_NE(p.contains(inf), "");
  p.may_overflow = true;
  EXPECT_EQ(p.contains(inf), "");
}

// ---------------------------------------------------------------------------
// halfgnn-check-v1 report
// ---------------------------------------------------------------------------

TEST(CheckReport, EmitsValidDeterministicSchema) {
  const Dataset d = dense_cluster_dataset(60, 4, 200, 16, 7);
  CheckConfig cfg;
  cfg.model = nn::ModelKind::kGat;
  cfg.epochs = 2;
  cfg.hidden = 16;
  const CheckResult r = analyze(d, cfg);
  const obs::Json doc = report_json(r);
  EXPECT_EQ(validate_check_report(doc), "");
  // Deterministic bytes: same analysis -> same report.
  const CheckResult r2 = analyze(d, cfg);
  EXPECT_EQ(report_json(r2).dump(2), doc.dump(2));
  // The validator rejects drift.
  obs::Json broken = doc;
  broken.set("overall", "MAYBE");
  EXPECT_NE(validate_check_report(broken), "");
  obs::Json noschema = doc;
  noschema.set("schema", "halfgnn-check-v2");
  EXPECT_NE(validate_check_report(noschema), "");
}

TEST(CheckReport, Fig1cTableShowsTheThreeRegimes) {
  const Dataset d = star_hub_dataset(3000, 16, 8.0f);
  const std::string table = fig1c_table(d, nn::ModelKind::kGcn, 2);
  EXPECT_NE(table.find("| DGL-half | f16 | UNSAFE |"), std::string::npos)
      << table;
  EXPECT_NE(table.find("| HalfGNN | f16 | NEEDS-SCALING |"),
            std::string::npos)
      << table;
  EXPECT_NE(table.find("| HalfGNN | bf16 | SAFE |"), std::string::npos)
      << table;
  EXPECT_NE(table.find("| HalfGNN | f32 | SAFE |"), std::string::npos)
      << table;
}

// hgcheck interprets the layer code the trainer runs, so it judges every
// GEMM of an epoch: the "gemm" dense spans of one traced Cora epoch equal
// the report's active gemm rows, per model and system mode.
TEST(CheckDrift, EveryTracedGemmHasAnActiveRow) {
  const Dataset cora = make_dataset(DatasetId::kCora);
  for (const nn::ModelKind model :
       {nn::ModelKind::kGcn, nn::ModelKind::kGat, nn::ModelKind::kGin}) {
    for (const nn::SystemMode mode :
         {nn::SystemMode::kDglFloat, nn::SystemMode::kDglHalf,
          nn::SystemMode::kHalfGnn}) {
      nn::TrainConfig tcfg = nn::default_config(model);
      tcfg.epochs = 1;
      tcfg.hidden = 16;
      tcfg.trace = true;
      obs::tracer().reset();
      obs::tracer().set_enabled(true);
      (void)nn::train(model, mode, cora, tcfg);
      obs::tracer().set_enabled(false);
      const obs::Json trace = obs::tracer().chrome_trace_json();
      obs::tracer().reset();
      int spans = 0;
      for (const obs::Json& e : trace.find("traceEvents")->items()) {
        const obs::Json* cat = e.find("cat");
        spans += cat != nullptr && cat->as_string() == "dense" &&
                 e.find("name")->as_string() == "gemm";
      }

      CheckConfig cfg;
      cfg.model = model;
      cfg.mode = mode;
      cfg.hidden = tcfg.hidden;
      int rows = 0;
      for (const SiteVerdict& v : analyze(cora, cfg).verdicts) {
        rows += v.active && v.op == "gemm";
      }
      EXPECT_EQ(spans, rows) << nn::model_name(model) << " / "
                             << nn::mode_name(mode);
    }
  }
}

}  // namespace
}  // namespace hg::check
