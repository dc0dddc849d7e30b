// hgcheck: static precision-safety verifier (DESIGN.md Sec. 15).
//
// analyze() walks a model's forward+backward dispatch graph symbolically —
// zero kernel launches — carrying a dual abstract value per tensor:
//
//   * a worst-case exponent interval (AbsVal), propagated by per-op
//     transfer functions (GEMM with reduction length K, SpMM with per-row
//     fan-in from CSR degree stats, edge softmax, ReLU, axpby,
//     cross-entropy, loss-scale multiplication), and
//   * an exact f64 epoch-0 evaluation of the same graph on the real
//     dataset and the real seed-derived initial weights, widened by the
//     declared drift envelope (CheckConfig::act_slack / grad_slack /
//     adam_kappa).
//
// The predicted interval for a tensor or a kernel's store sites is the
// pointwise min of the two tracks, times scaler_max for tensors that carry
// the f16 loss scale. Verdicts per (layer, op, dtype, dispatch-chain
// entry) come from the same bounds measured against the storage range and
// the kernel's mean-scaling machinery, both read from the row the runtime
// dispatches (nn/kernel_table.hpp):
//
//   SAFE           every running value and store fits the format
//   NEEDS-SCALING  the unprotected reduction would overflow but the
//                  applied machinery (discretized inv-deg scaling, the
//                  GradScaler) keeps it finite; reports the minimal
//                  factor needed and the factor actually applied
//   UNSAFE         a running value overflows with no machinery in the
//                  way (DGL post-norm mean on a hub row, plain f16 sum)
//
// Soundness is modulo the declared envelope assumptions; the soundness
// bridge (tests/check/check_soundness_test.cpp) machine-checks every
// assumption each CI run by asserting observed hgprof ExpHists are
// contained in the predicted intervals.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/absval.hpp"
#include "graph/datasets.hpp"
#include "graph/graph.hpp"
#include "nn/common.hpp"
#include "nn/models.hpp"
#include "obs/json.hpp"
#include "obs/prof/prof.hpp"

namespace hg::check {

enum class Verdict { kSafe, kNeedsScaling, kUnsafe };

std::string_view verdict_name(Verdict v);  // "SAFE" | "NEEDS-SCALING" | "UNSAFE"

struct CheckConfig {
  nn::ModelKind model = nn::ModelKind::kGcn;
  nn::SystemMode mode = nn::SystemMode::kHalfGnn;
  std::optional<Dtype> dtype;  // unset: the mode's working dtype
  int epochs = 4;              // training budget the verdict must cover
  float lr = 0.01f;
  int hidden = 64;
  std::uint64_t seed = 42;

  // Declared envelope assumptions (DESIGN.md Sec. 15.3) — each one is
  // machine-checked dynamically by the soundness bridge:
  //   adam_kappa: per-step parameter movement is bounded by kappa * lr
  //               (Adam's update is ~lr-sized; kappa absorbs bias
  //               correction and epsilon effects).
  //   act_slack:  no activation magnitude grows past act_slack x its
  //               epoch-0 value within the epoch budget.
  //   grad_slack: same for gradients (looser: curvature moves grads more).
  double adam_kappa = 4.0;
  double act_slack = 4.0;
  double grad_slack = 64.0;
  // false: pure worst-case intervals only (no concrete track). Sound
  // without assumptions, but too loose to separate the Fig. 1c regimes.
  bool use_envelope = true;
  double scaler_max = 65536.0;  // GradScaler's range cap
};

// One verdict row: a reduction/store site crossed with one entry of its
// dispatch chain (level 0 = the kernel that actually runs; deeper levels
// are TrainGuard escalation targets, reported so a mid-training fallback
// has a pre-computed safety verdict).
struct SiteVerdict {
  int layer = 0;             // 1-based conv layer; 0 = loss head / input
  std::string op;            // "spmm" | "gemm" | "seg_reduce" | ...
  std::string site;          // e.g. "L1.fwd.spmm"
  std::string kernel;        // dispatch-chain entry label
  int chain_level = 0;       // 0 = native kernel for this dtype/mode
  bool active = false;       // true: this entry is what level-0 dispatch runs
  Dtype storage = Dtype::kF32;
  Verdict verdict = Verdict::kSafe;
  double input_hi = 0;       // reduction input envelope M
  double running_hi = 0;     // worst value the kernel's stores can see
  long long fan_in = 0;      // reduction length (max row degree, K, ...)
  std::string protection;    // "none" | "postnorm" | "discretized" |
                             // "convex" | "shadow" | "gradscaler" |
                             // "f32accum" | "int32" | "popcount" |
                             // "reference"
  double needed_factor = 0;  // minimal scaling factor to fit; 0 = none
  double applied_factor = 0; // factor the runtime machinery applies
  std::string reason;        // one-line human-readable justification
};

// Predicted exponent interval for one tensor or one launched kernel's
// store sites, in ExpHist's clamped bin coordinates.
struct PredInterval {
  int lo_exp = kMinExp;
  int hi_exp = kMaxExp;
  bool may_zero = true;
  bool may_subnormal = true;
  bool may_overflow = false;
  bool may_nan = false;

  static PredInterval from(const AbsVal& v, Dtype stored);
  // "" when every observed value class was predicted, else the first
  // violation ("bin 17 above hi_exp 15", "overflows observed but not
  // predicted", ...).
  std::string contains(const obs::prof::ExpHist& h) const;
};

struct CheckResult {
  CheckConfig cfg;
  std::string dataset;
  Dtype requested = Dtype::kF32;  // dtype the verdicts are for
  Dtype train_dtype = Dtype::kF32;  // trainable dtype actually trained in
  bool loss_scaled = false;
  GraphStats gstats{};
  DegreeSummary degrees{};
  std::vector<SiteVerdict> verdicts;
  // Trainer-sampled tensor names ("act.logits", "grad.param0", ...).
  std::map<std::string, PredInterval> tensors;
  // Launched kernel names (LaunchDesc::name, e.g. spmm_halfgnn).
  std::map<std::string, PredInterval> kernels;
  Verdict overall = Verdict::kSafe;  // worst verdict over *active* rows

  const PredInterval* tensor(const std::string& name) const;
  const PredInterval* kernel(const std::string& name) const;
};

// The static analysis. Pure host computation: no Device, no Stream, no
// kernel launches.
CheckResult analyze(const Dataset& data, const CheckConfig& cfg);

// --- report ----------------------------------------------------------------
// "halfgnn-check-v1": config + graph stats + verdict rows + predicted
// intervals. Deterministic field order (std::map + fixed emission order).
obs::Json report_json(const CheckResult& r);
// Empty string when `doc` conforms to halfgnn-check-v1, else the first
// violation.
std::string validate_check_report(const obs::Json& doc);

// --- Fig. 1c, statically re-derived ----------------------------------------
// One Markdown row per (system mode x dtype) cell for `model` on `data`:
// the paper's observation that hub-degree mean aggregation is UNSAFE at
// plain f16 (post-norm), NEEDS-SCALING with the discretized factor under
// HalfGNN, and SAFE at bf16/f32 — derived without running anything.
std::string fig1c_table(const Dataset& data, nn::ModelKind model, int epochs);

}  // namespace hg::check
