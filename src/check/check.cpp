#include "check/check.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "amp/amp.hpp"
#include "kernels/api.hpp"
#include "kernels/reference.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "nn/kernel_table.hpp"
#include "nn/param.hpp"
#include "util/rng.hpp"

namespace hg::check {

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kSafe: return "SAFE";
    case Verdict::kNeedsScaling: return "NEEDS-SCALING";
    case Verdict::kUnsafe: return "UNSAFE";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// PredInterval
// ---------------------------------------------------------------------------

PredInterval PredInterval::from(const AbsVal& v, Dtype stored) {
  const AbsVal s = v.stored_as(stored);
  PredInterval p;
  p.hi_exp = s.hi_exp();
  p.lo_exp = kMinExp;  // no lower-magnitude claims: cancellation can always
                       // produce arbitrarily small values
  p.may_zero = true;
  p.may_subnormal = true;
  p.may_overflow = s.may_overflow;
  p.may_nan = s.may_nan;
  return p;
}

std::string PredInterval::contains(const obs::prof::ExpHist& h) const {
  static_assert(obs::prof::ExpHist::kMinExp == kMinExp &&
                    obs::prof::ExpHist::kMaxExp == kMaxExp,
                "hgcheck's exponent domain must mirror hgprof's bins");
  for (int i = 0; i < obs::prof::ExpHist::kBins; ++i) {
    if (h.bins[i] == 0) continue;
    const int e = kMinExp + i;
    if (e > hi_exp) {
      return "observed exponent " + std::to_string(e) +
             " above predicted hi_exp " + std::to_string(hi_exp);
    }
    if (e < lo_exp) {
      return "observed exponent " + std::to_string(e) +
             " below predicted lo_exp " + std::to_string(lo_exp);
    }
  }
  if (!may_zero && h.zeros != 0) return "zeros observed but not predicted";
  if (!may_subnormal && h.subnormals != 0) {
    return "subnormals observed but not predicted";
  }
  if (!may_overflow && h.overflows != 0) {
    return "overflows observed but not predicted";
  }
  if (!may_nan && h.nans != 0) return "NaNs observed but not predicted";
  return "";
}

const PredInterval* CheckResult::tensor(const std::string& name) const {
  const auto it = tensors.find(name);
  return it == tensors.end() ? nullptr : &it->second;
}
const PredInterval* CheckResult::kernel(const std::string& name) const {
  const auto it = kernels.find(name);
  return it == kernels.end() ? nullptr : &it->second;
}

namespace {

// ---------------------------------------------------------------------------
// Concrete track: exact f64 epoch-0 tensors
// ---------------------------------------------------------------------------

struct CT {
  std::int64_t rows = 0, cols = 0;
  std::vector<double> v;

  CT() = default;
  CT(std::int64_t r, std::int64_t c)
      : rows(r), cols(c),
        v(static_cast<std::size_t>(r) * static_cast<std::size_t>(c), 0.0) {}
  CT(std::int64_t r, std::int64_t c, std::vector<double> vals)
      : rows(r), cols(c), v(std::move(vals)) {}

  double& at(std::int64_t r, std::int64_t c) {
    return v[static_cast<std::size_t>(r * cols + c)];
  }
  double get(std::int64_t r, std::int64_t c) const {
    return v[static_cast<std::size_t>(r * cols + c)];
  }
  double maxabs() const {
    double m = 0;
    for (const double x : v) m = std::max(m, std::abs(x));
    return m;
  }
};

CT from_mtensor(const MTensor& t) {
  CT c(t.rows(), t.cols());
  const auto f = t.f();
  for (std::size_t i = 0; i < f.size(); ++i) c.v[i] = f[i];
  return c;
}

// C = op_a(A) * op_b(B), exact.
CT gemm_c(const CT& a, bool ta, const CT& b, bool tb) {
  const std::int64_t m = ta ? a.cols : a.rows;
  const std::int64_t k = ta ? a.rows : a.cols;
  const std::int64_t n = tb ? b.rows : b.cols;
  CT c(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double av = ta ? a.get(kk, i) : a.get(i, kk);
      if (av == 0.0) continue;
      for (std::int64_t j = 0; j < n; ++j) {
        c.at(i, j) += av * (tb ? b.get(j, kk) : b.get(kk, j));
      }
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Dual-track tensor value
// ---------------------------------------------------------------------------

struct TV {
  CT c;        // exact epoch-0 value (loss scale NOT applied)
  AbsVal a;    // worst-case abstract value over the whole run (scale-free)
  bool grad = false;   // gradient-path tensor (wider drift envelope)
  int scale_deg = 0;   // how many loss-scale factors the tensor carries
};

// ---------------------------------------------------------------------------
// The analyzer: the abstract backend of nn/models.hpp's layer code
// ---------------------------------------------------------------------------

class Analyzer {
 public:
  Analyzer(const Dataset& d, const CheckConfig& cfg) : d_(d), cfg_(cfg) {
    if (!d.labeled) {
      throw std::invalid_argument("dataset " + d.name +
                                  " has no labels/features");
    }
    out_.cfg = cfg;
    out_.dataset = d.name;
    out_.gstats = compute_stats(d.csr);
    out_.degrees = summarize_degrees(d.csr);
    req_ = cfg.dtype.value_or(nn::working_dtype(cfg.mode));
    train_dt_ = dtype_trainable(req_) ? req_ : Dtype::kF32;
    out_.requested = req_;
    out_.train_dtype = train_dt_;
    scaled_ = amp::needs_loss_scaling(train_dt_);
    out_.loss_scaled = scaled_;
    classes_ = d.num_classes;
    out_dim_ = nn::pad_feat(classes_);
    // The configuration the trainer would reject is not analyzed either.
    nn::check_feature_widths(cfg.model, cfg.mode, train_dt_, d.feat_dim,
                             cfg.hidden, out_dim_);
    if (req_ != train_dt_) {
      nn::check_feature_widths(cfg.model, cfg.mode, req_, d.feat_dim,
                               cfg.hidden, out_dim_);
    }
    wgrowth_ = static_cast<double>(cfg.epochs) * cfg.lr * cfg.adam_kappa;

    rev_ = reverse_edge_permutation(d.csr);
    train_count_ = 0;
    for (const std::uint8_t m : d.train_mask) train_count_ += m != 0;
  }

  CheckResult run() {
    switch (cfg_.model) {
      case nn::ModelKind::kGcn: interpret<nn::GcnConv>(); break;
      case nn::ModelKind::kGat: interpret<nn::GatConv>(); break;
      case nn::ModelKind::kGin: interpret<nn::GinConv>(); break;
    }
    for (const SiteVerdict& v : out_.verdicts) {
      if (v.active && static_cast<int>(v.verdict) >
                          static_cast<int>(out_.overall)) {
        out_.overall = v.verdict;
      }
    }
    return std::move(out_);
  }

  // Everything but the state is public: the op sites below are the
  // backend nn/models.hpp's layer templates call.

  // --- envelope ----------------------------------------------------------
  // Effective magnitude bound: min(worst-case, epoch-0 envelope x declared
  // drift slack), times the loss-scale range the tensor carries. The 1.05
  // cushion absorbs storage rounding (f16 rounds at 2^-11 relative).
  double eff(const TV& t) const { return eff_unscaled(t) * scale_factor(t); }
  double eff_unscaled(const TV& t) const {
    const double slack = t.grad ? cfg_.grad_slack : cfg_.act_slack;
    double b = t.a.hi;
    if (cfg_.use_envelope) {
      b = std::min(b, std::max(t.c.maxabs(), 1e-30) * slack);
    }
    return b * 1.05;
  }
  double scale_factor(const TV& t) const {
    double s = 1.0;
    for (int i = 0; i < t.scale_deg; ++i) s *= cfg_.scaler_max;
    return s;
  }
  AbsVal effval(const TV& t, double bound) const {
    AbsVal v = t.a;
    v.hi = bound;
    v.lo = 0;
    return v;
  }

  // --- prediction registration --------------------------------------------
  static void widen(PredInterval& dst, const PredInterval& src) {
    dst.hi_exp = std::max(dst.hi_exp, src.hi_exp);
    dst.lo_exp = std::min(dst.lo_exp, src.lo_exp);
    dst.may_zero = dst.may_zero || src.may_zero;
    dst.may_subnormal = dst.may_subnormal || src.may_subnormal;
    dst.may_overflow = dst.may_overflow || src.may_overflow;
    dst.may_nan = dst.may_nan || src.may_nan;
  }
  void predict_kernel(std::string_view name, const AbsVal& v, Dtype stored) {
    const PredInterval p = PredInterval::from(v, stored);
    auto [it, fresh] = out_.kernels.emplace(std::string(name), p);
    if (!fresh) widen(it->second, p);
  }
  void predict_tensor(const std::string& name, const AbsVal& v,
                      Dtype stored) {
    const PredInterval p = PredInterval::from(v, stored);
    auto [it, fresh] = out_.tensors.emplace(name, p);
    if (!fresh) widen(it->second, p);
  }

  // --- verdict machinery ---------------------------------------------------
  struct Judge {
    Verdict v = Verdict::kSafe;
    double running = 0;
    std::string protection = "none";
    double needed = 0;
    double applied = 0;
    std::string reason;
  };

  // Judges one reduction against one kernel's machinery. M/M1 are the
  // per-term input bounds with/without the loss-scale range; d is the
  // worst-case fan-in; convex marks row-stochastic edge weights.
  Judge judge_reduction(const nn::KernelRow& m, kernels::Reduce reduce,
                        double M, double M1, long long d, int feat,
                        bool convex, bool gradpath) const {
    Judge j;
    if (!m.launches()) {
      j.protection = "reference";
      j.running = M;
      j.reason = "host fp64 reference, outside the simulated range";
      return j;
    }
    if (m.accum == nn::Accum::kInt32) {
      j.protection = "int32";
      j.running = static_cast<double>(d) * 127.0 * 127.0;
      if (d > int8_dot_headroom()) {
        j.v = Verdict::kUnsafe;
        j.reason = "int32 accumulator wraps past " +
                   std::to_string(int8_dot_headroom()) + " int8 products";
      } else {
        j.reason = "int8 dot fits the int32 accumulator (fan-in " +
                   std::to_string(d) + " <= " +
                   std::to_string(int8_dot_headroom()) + ")";
      }
      return j;
    }
    if (m.accum == nn::Accum::kPopcount) {
      j.protection = "popcount";
      j.running = static_cast<double>(d);
      j.reason = "sign-domain popcount counts are bounded by the degree";
      return j;
    }

    const double cap = m.accum == nn::Accum::kF16
                           ? dtype_range(Dtype::kF16).max_finite
                           : dtype_range(Dtype::kF32).max_finite;
    const double fan = convex ? 1.0 : static_cast<double>(d);
    double unprot = M;     // worst running value with no machinery
    double prot = M;       // worst running value under the machinery
    if (m.reducing && reduce != kernels::Reduce::kMax) {
      unprot = fan * M;
      if (reduce == kernels::Reduce::kMean &&
          m.mean_scale == nn::MeanScale::kDiscretized) {
        const double seg =
            static_cast<double>(kernels::halfgnn_segment_edges(feat));
        prot = std::min(fan, seg) * M;
        j.protection = convex ? "convex" : "discretized";
      } else {
        prot = unprot;
        if (convex) {
          j.protection = "convex";
        } else if (reduce == kernels::Reduce::kMean) {
          j.protection = "postnorm";
        }
      }
    }
    j.running = prot;
    if (prot <= cap && unprot <= cap) return j;  // SAFE
    if (prot <= cap) {
      // The unprotected sum would overflow, the machinery keeps every
      // running value in range: the paper's NEEDS-SCALING regime.
      j.v = Verdict::kNeedsScaling;
      j.needed = std::ceil(unprot / cap);
      // What the runtime actually applies: the discretized flush multiplies
      // each partial by inv_deg(r), i.e. the factor at the worst row is its
      // degree.
      j.applied = static_cast<double>(d);
      j.reason = "unprotected sum reaches " + fmt(unprot) + " > " + fmt(cap) +
                 "; discretized partials stay at " + fmt(prot);
      return j;
    }
    // The machinery's own running value overflows.
    const double prot1 = prot / std::max(M, 1e-300) * M1;  // at scale 1
    if (gradpath && scaled_ && prot1 <= cap) {
      // Gradient overflow under f16 loss scaling: the GradScaler observes
      // the non-finite grad, skips the step and halves the scale until the
      // running value fits — recoverable by construction (amp.hpp).
      j.v = Verdict::kNeedsScaling;
      j.protection = "gradscaler";
      j.needed = std::ceil(prot / cap);
      j.applied = cfg_.scaler_max;
      j.reason = "running gradient value " + fmt(prot) +
                 " can overflow at full loss scale; scaler backoff keeps "
                 "scale-1 bound " +
                 fmt(prot1) + " <= " + fmt(cap);
      return j;
    }
    j.v = Verdict::kUnsafe;
    j.needed = std::ceil(prot / cap);
    j.reason = "running value reaches " + fmt(prot) + " > " + fmt(cap) +
               (gradpath ? "" : " in the forward pass (no recovery path)");
    return j;
  }

  static std::string fmt(double v) {
    std::ostringstream os;
    os.precision(4);
    os << v;
    return os.str();
  }

  void add_row(SiteVerdict v) { out_.verdicts.push_back(std::move(v)); }
  // Records `v` with the judge's verdict and factors; `safe_reason`
  // explains a verdict the judge gave no reason for.
  void add_row(SiteVerdict v, const Judge& j, std::string safe_reason) {
    v.verdict = j.v;
    v.running_hi = j.running;
    v.protection = j.protection;
    v.needed_factor = j.needed;
    v.applied_factor = j.applied;
    v.reason = j.reason.empty() ? std::move(safe_reason) : j.reason;
    add_row(std::move(v));
  }

  // Elementwise store site (edge ops, dense stores): UNSAFE only if the
  // stored value itself leaves the format.
  Judge judge_store(double hi, double hi1, Dtype stored, bool gradpath,
                    std::string protection) const {
    Judge j;
    j.protection = std::move(protection);
    j.running = hi;
    const double cap = dtype_range(stored).max_finite;
    if (hi <= cap) return j;
    if (gradpath && scaled_ && hi1 <= cap) {
      j.v = Verdict::kNeedsScaling;
      j.protection = "gradscaler";
      j.needed = std::ceil(hi / cap);
      j.applied = cfg_.scaler_max;
      j.reason = "stored gradient can overflow at full loss scale";
      return j;
    }
    j.v = Verdict::kUnsafe;
    j.needed = std::ceil(hi / cap);
    j.reason = "stored value " + fmt(hi) + " exceeds " + fmt(cap);
    return j;
  }

  // --- op sites: the backend interface of nn/models.hpp -------------------
  // Every call the layer code makes is its transfer function here: the
  // exact f64 epoch-0 value, the worst-case AbsVal, and verdict rows for its
  // site in the current layer. The pass opens no trace span and touches no
  // meter, ledger or registry.
  using Tensor = TV;
  struct NoSpan {};

  nn::SystemMode mode() const { return cfg_.mode; }
  void at_layer(int layer) { layer_ = layer; }
  NoSpan layer_span(const char* /*name*/) const { return {}; }
  TV copy(const TV& x) const { return x; }
  template <class... Ts>
  void meter(const Ts&... /*state*/) const {}

  // Dense GEMM (host op in the real runtime: half multiplies, float
  // accumulate), y = x W (+ b).
  TV linear(const char* site, const TV& x, nn::Param& w, nn::Param* bias) {
    const CT& W = weight(w);
    TV out;
    out.c = gemm_c(x.c, false, W, false);
    const double whi = W.maxabs() + wgrowth_;
    const double K = static_cast<double>(W.rows);
    out.a = AbsVal::bounded(K * x.a.hi * whi);
    out.a.may_overflow = x.a.may_overflow;
    out.a.may_nan = x.a.may_nan || x.a.may_overflow;
    double bhi = 0.0;
    if (bias != nullptr) {
      const CT& B = weight(*bias);
      for (std::int64_t j = 0; j < B.cols; ++j) {
        for (std::int64_t r = 0; r < out.c.rows; ++r) {
          out.c.at(r, j) += B.get(0, j);
        }
      }
      bhi = B.maxabs() + wgrowth_;
      out.a.hi += bhi;
    }
    out.grad = x.grad;
    out.scale_deg = x.scale_deg;

    const double M = eff(x) * whi;
    const double M1 = eff_unscaled(x) * whi;
    SiteVerdict v;
    v.layer = layer_;
    v.op = "gemm";
    v.site = site_name(site);
    v.kernel = gemm_label();
    v.chain_level = 0;
    v.active = true;
    v.storage = cur_dt_;
    v.input_hi = eff(x);
    v.fan_in = static_cast<long long>(K);
    // float accumulate (tensor-core path): the running dot never rounds
    // through half; only the final store does.
    const double store_hi = K * M + bhi;
    const double store_hi1 = K * M1 + bhi;
    Judge j = judge_store(store_hi, store_hi1, cur_dt_, x.grad, "f32accum");
    add_row(std::move(v), j,
            "float accumulate; store fits " +
                std::string(dtype_name(cur_dt_)));
    if (j.v != Verdict::kSafe) {
      out.a.may_overflow = true;
      out.a.may_nan = true;
    }
    return out;
  }

  std::string gemm_label() const {
    return std::string("host_gemm_") + std::string(dtype_name(cur_dt_));
  }

  // dX = dY op W^T — same machinery, different operand order.
  TV input_grad(const char* site, const TV& dy, nn::Param& w) {
    const CT& W = weight(w);
    TV out;
    out.c = gemm_c(dy.c, false, W, true);
    const double whi = W.maxabs() + wgrowth_;
    const double K = static_cast<double>(W.cols);
    out.a = AbsVal::bounded(K * dy.a.hi * whi);
    out.a.may_overflow = dy.a.may_overflow;
    out.a.may_nan = dy.a.may_nan || dy.a.may_overflow;
    out.grad = true;
    out.scale_deg = dy.scale_deg;

    SiteVerdict v;
    v.layer = layer_;
    v.op = "gemm";
    v.site = site_name(site);
    v.kernel = gemm_label();
    v.active = true;
    v.storage = cur_dt_;
    v.input_hi = eff(dy);
    v.fan_in = static_cast<long long>(K);
    Judge j = judge_store(K * eff(dy) * whi, K * eff_unscaled(dy) * whi,
                          cur_dt_, true, "f32accum");
    add_row(std::move(v), j, "float accumulate backward GEMM");
    if (j.v != Verdict::kSafe) {
      out.a.may_overflow = true;
      out.a.may_nan = true;
    }
    return out;
  }

  // dW = X^T dY (+ db = colsum dY), accumulated straight into f32 masters.
  void weight_grad(const char* site, const TV& x_saved, const TV& dy,
                   nn::Param& w, nn::Param* bias) {
    TV dw;
    dw.c = gemm_c(x_saved.c, true, dy.c, false);
    const double N = static_cast<double>(x_saved.c.rows);
    dw.a = AbsVal::bounded(N * x_saved.a.hi * dy.a.hi);
    dw.a.may_overflow = dy.a.may_overflow || x_saved.a.may_overflow;
    dw.a.may_nan = dw.a.may_overflow || dy.a.may_nan || x_saved.a.may_nan;
    dw.grad = true;
    dw.scale_deg = dy.scale_deg + x_saved.scale_deg;
    accumulate_grad(w, dw);

    SiteVerdict v;
    v.layer = layer_;
    v.op = "gemm";
    v.site = site_name(site);
    v.kernel = "host_gemm_f32";  // weight grads always land in f32
    v.active = true;
    v.storage = Dtype::kF32;
    v.input_hi = eff(dy);
    v.fan_in = static_cast<long long>(N);
    Judge j = judge_store(N * eff(x_saved) * eff(dy),
                          N * eff_unscaled(x_saved) * eff_unscaled(dy),
                          Dtype::kF32, true, "f32accum");
    v.verdict = j.v;
    v.running_hi = j.running;
    v.protection = j.protection;
    v.reason = j.reason.empty() ? "weight gradient in f32 master storage"
                                : j.reason;
    add_row(v);

    if (bias != nullptr) {
      TV db;
      db.c = CT(1, dy.c.cols);
      for (std::int64_t r = 0; r < dy.c.rows; ++r) {
        for (std::int64_t jc = 0; jc < dy.c.cols; ++jc) {
          db.c.at(0, jc) += dy.c.get(r, jc);
        }
      }
      db.a = AbsVal::bounded(N * dy.a.hi);
      db.a.may_overflow = dy.a.may_overflow;
      db.a.may_nan = dy.a.may_nan || dy.a.may_overflow;
      db.grad = true;
      db.scale_deg = dy.scale_deg;
      accumulate_grad(*bias, db);
    }
  }

  // dz += d a^T: a rank-1 backward GEMM, then its axpby into dz.
  void rank1(const char* site, TV& dz, const TV& d, nn::Param& a) {
    axpby(site, input_grad(site, d, a), 1.0, dz, 1.0);
  }

  TV spmm(const char* site, const TV* ew, const TV& x,
          kernels::Reduce reduce) {
    return spmm_site(site, x, ew, reduce, false);
  }
  // As the runtime runs it: the edge weights go through the reverse-edge
  // permutation (reported at its own site), then an ordinary SpMM over the
  // symmetric topology.
  TV spmm_transposed(const char* site, const TV* ew, const TV& x,
                     kernels::Reduce reduce, const char* perm_site = nullptr) {
    if (ew == nullptr) return spmm_site(site, x, nullptr, reduce, true);
    const TV wp = edge_permute(perm_site, *ew);
    return spmm_site(site, x, &wp, reduce, true);
  }

  void accumulate_grad(const nn::Param& p, const TV& g) {
    TV& dst = gsum_[param_index(p)];
    if (dst.c.v.empty()) {
      dst = g;
    } else {
      for (std::size_t i = 0; i < dst.c.v.size(); ++i) {
        dst.c.v[i] += g.c.v[i];
      }
      dst.a.hi += g.a.hi;
      dst.a = dst.a.join(g.a);
      dst.scale_deg = std::max(dst.scale_deg, g.scale_deg);
      dst.grad = true;
    }
  }

  // SpMM through the dispatch chain: one verdict row per chain entry,
  // kernel predictions for the active entry's launches. `transposed` only
  // names the op: spmm_transposed has already permuted the weights.
  TV spmm_site(const char* site, const TV& x, const TV* ew,
               kernels::Reduce reduce, bool transposed) {
    const int feat = static_cast<int>(x.c.cols);
    // Concrete aggregation, exact: the guard's host reference kernel.
    TV out;
    out.c = CT(d_.csr.num_vertices, feat,
               kernels::reference_spmm(
                   d_.csr,
                   ew != nullptr ? std::span<const double>(ew->c.v)
                                 : std::span<const double>(),
                   x.c.v, feat, reduce));

    const bool convex = ew != nullptr && ew->a.row_stochastic;
    const long long dmax = static_cast<long long>(out_.degrees.max_degree);
    const double ewhi = ew != nullptr ? std::min(ew->a.hi, convex ? 1.0 : ew->a.hi) : 1.0;
    // Worst-case abstract output (scale-free).
    const double term = x.a.hi * (ew != nullptr ? ewhi : 1.0);
    double whost = term;
    if (reduce == kernels::Reduce::kSum && !convex) {
      whost = static_cast<double>(dmax) * term;
    }
    out.a = AbsVal::bounded(whost);
    out.a.may_overflow = x.a.may_overflow || (ew != nullptr && ew->a.may_overflow);
    out.a.may_nan = out.a.may_overflow || x.a.may_nan ||
                    (ew != nullptr && ew->a.may_nan);
    out.grad = x.grad || (ew != nullptr && ew->grad);
    out.scale_deg = x.scale_deg + (ew != nullptr ? ew->scale_deg : 0);

    const double Mterm = eff(x) * (ew != nullptr ? std::min(eff(*ew), convex ? 1.05 : eff(*ew)) : 1.0);
    const double Mterm1 =
        eff_unscaled(x) *
        (ew != nullptr ? std::min(eff_unscaled(*ew), convex ? 1.05 : eff_unscaled(*ew)) : 1.0);

    const nn::Chain& chain =
        nn::dispatch_chain(nn::Op::kSpmm, cfg_.mode, cur_dt_);
    for (int L = 0; L < chain.len; ++L) {
      const nn::KernelRow& row = nn::kernel_row(chain.at(L).kernel);
      SiteVerdict v;
      v.layer = layer_;
      v.op = transposed ? "spmm_transposed" : "spmm";
      v.site = site_name(site);
      v.kernel = row.label;
      v.chain_level = L;
      v.active = L == 0;
      v.input_hi = Mterm;
      v.fan_in = dmax;
      v.storage = row.storage;
      Judge j = judge_reduction(row, reduce, Mterm, Mterm1, dmax, feat,
                                convex, x.grad);
      add_row(std::move(v), j,
              "every running value fits " +
                  std::string(dtype_name(row.storage)));

      if (L == 0 && row.launches()) {
        // Predicted store interval for every kernel this dispatch launches:
        // running partials AND final stores (mean/max stay at one input
        // magnitude; the concrete envelope is exact at epoch 0), joined.
        AbsVal stores = effval(x, std::max(j.running, eff(out)));
        if (row.accum == nn::Accum::kPopcount) {
          // The XNOR epilogue stores alpha_scale * (2c - deg) with
          // |2c - deg| <= deg, IGNORING any edge weights the float path
          // would apply — so the convex (row-stochastic) bound does not
          // hold here; the store is bounded by deg * mean|x| instead.
          const double xnor =
              (reduce == kernels::Reduce::kSum ? static_cast<double>(dmax)
                                               : 1.0) *
              eff(x);
          stores.hi = std::max(stores.hi, xnor);
        }
        stores.may_overflow = stores.may_overflow || j.running >
            dtype_range(row.storage).max_finite;
        stores.may_nan = stores.may_nan || stores.may_overflow;
        if (j.v != Verdict::kSafe && j.protection != "discretized") {
          stores.may_overflow = true;
          stores.may_nan = true;
        }
        for (const std::string_view name : row.launched()) {
          predict_kernel(name, stores, row.storage);
        }
        if (j.v == Verdict::kUnsafe ||
            (j.v == Verdict::kNeedsScaling && j.protection == "gradscaler")) {
          out.a.may_overflow = true;
          out.a.may_nan = true;
        }
      }
    }
    return out;
  }

  // SDDMM per-edge dot (GAT backward): fan-in = feature width.
  TV sddmm(const char* site, const TV& a_rows, const TV& b_cols) {
    const int feat = static_cast<int>(a_rows.c.cols);
    TV out;
    out.c = CT(d_.csr.num_edges(), 1,
               kernels::reference_sddmm(d_.coo, a_rows.c.v, b_cols.c.v, feat));
    out.a = AbsVal::bounded(static_cast<double>(feat) * a_rows.a.hi *
                            b_cols.a.hi);
    out.a.may_overflow = a_rows.a.may_overflow || b_cols.a.may_overflow;
    out.a.may_nan = out.a.may_overflow || a_rows.a.may_nan || b_cols.a.may_nan;
    out.grad = a_rows.grad || b_cols.grad;
    out.scale_deg = a_rows.scale_deg + b_cols.scale_deg;

    const double M = eff(a_rows) * eff(b_cols);
    const double M1 = eff_unscaled(a_rows) * eff_unscaled(b_cols);
    const nn::Chain& chain =
        nn::dispatch_chain(nn::Op::kSddmm, cfg_.mode, cur_dt_);
    for (int L = 0; L < chain.len; ++L) {
      const nn::KernelRow& row = nn::kernel_row(chain.at(L).kernel);
      SiteVerdict v;
      v.layer = layer_;
      v.op = "sddmm";
      v.site = site_name(site);
      v.kernel = row.label;
      v.chain_level = L;
      v.active = L == 0;
      v.input_hi = M;
      v.fan_in = feat;
      v.storage = row.storage;
      Judge j = judge_reduction(row, kernels::Reduce::kSum, M, M1,
                                feat, feat, false, out.grad);
      add_row(std::move(v), j, "per-edge dot fits the accumulator");
      if (L == 0 && row.launches()) {
        AbsVal stores = effval(out, std::max(j.running, eff(out)));
        if (j.v != Verdict::kSafe) {
          stores.may_overflow = true;
          stores.may_nan = true;
        }
        for (const std::string_view name : row.launched()) {
          predict_kernel(name, stores, row.storage);
        }
        if (j.v != Verdict::kSafe) {
          out.a.may_overflow = true;
          out.a.may_nan = true;
        }
      }
    }
    return out;
  }

  // Per-row segment reduce over edge values (GAT softmax chain).
  TV seg_reduce(const char* site, const TV& ev, kernels::SegReduce sr) {
    const bool is_sum = sr == kernels::SegReduce::kSum;
    TV out;
    out.c = CT(static_cast<std::int64_t>(d_.csr.num_vertices), 1);
    for (vid_t r = 0; r < d_.csr.num_vertices; ++r) {
      const eid_t lo = d_.csr.offsets[static_cast<std::size_t>(r)];
      const eid_t hi = d_.csr.offsets[static_cast<std::size_t>(r) + 1];
      double acc = is_sum ? 0.0 : -1e300;
      for (eid_t e = lo; e < hi; ++e) {
        const double x = ev.c.v[static_cast<std::size_t>(e)];
        acc = is_sum ? acc + x : std::max(acc, x);
      }
      out.c.v[static_cast<std::size_t>(r)] = lo == hi ? 0.0 : acc;
    }
    const long long dmax = static_cast<long long>(out_.degrees.max_degree);
    out.a = AbsVal::bounded(is_sum ? static_cast<double>(dmax) * ev.a.hi
                                   : ev.a.hi);
    out.a.may_negative = ev.a.may_negative;
    out.a.may_overflow = ev.a.may_overflow;
    out.a.may_nan = ev.a.may_nan || ev.a.may_overflow;
    out.grad = ev.grad;
    out.scale_deg = ev.scale_deg;

    const nn::KernelRow& row =
        active_row(is_sum ? nn::Op::kSegSum : nn::Op::kSegMax);
    const Dtype dt = row.storage;
    const std::string_view label = row.launched().front();
    const double M = eff(ev);
    const double M1 = eff_unscaled(ev);
    SiteVerdict v;
    v.layer = layer_;
    v.op = "seg_reduce";
    v.site = site_name(site);
    v.kernel = label;
    v.active = true;
    v.storage = dt;
    v.input_hi = M;
    v.fan_in = dmax;
    Judge j = judge_reduction(
        row, is_sum ? kernels::Reduce::kSum : kernels::Reduce::kMax, M, M1,
        dmax, 1, false, ev.grad);
    // The forward softmax reductions (row max of the scores, row sum of
    // their exps in (0, 1]) run the shadow half API.
    if (!ev.grad && j.v == Verdict::kSafe) j.protection = "shadow";
    add_row(std::move(v), j, "segment reduction in range");
    AbsVal stores = effval(out, std::max(j.running, eff(out)));
    if (j.v != Verdict::kSafe) {
      stores.may_overflow = true;
      stores.may_nan = true;
      out.a.may_overflow = true;
      out.a.may_nan = true;
    }
    predict_kernel(label, stores, dt);
    return out;
  }

  // The table row the runtime runs for `op` at this pass's mode and dtype
  // (level 0: the kernel that actually runs).
  const nn::KernelRow& active_row(nn::Op op) const {
    return nn::kernel_row(
        nn::dispatch_chain(op, cfg_.mode, cur_dt_).at(0).kernel);
  }

  // Elementwise edge op: one launched kernel, store-range verdict. Edge
  // sites are named by the kernel they launch.
  TV edge_elementwise(const char* site, nn::Op kop, const std::string& op,
                      TV out, std::string protection) {
    const nn::KernelRow& row = active_row(kop);
    const Dtype dt = row.storage;
    const std::string_view label = row.launched().front();
    SiteVerdict v;
    v.layer = layer_;
    v.op = op;
    v.site = site_name(site);
    v.kernel = label;
    v.active = true;
    v.storage = dt;
    v.input_hi = eff(out);
    v.fan_in = 1;
    Judge j = judge_store(eff(out), eff_unscaled(out), dt, out.grad,
                          std::move(protection));
    add_row(std::move(v), j, "elementwise store in range");
    AbsVal stores = effval(out, eff(out));
    if (j.v != Verdict::kSafe) {
      stores.may_overflow = true;
      stores.may_nan = true;
      out.a.may_overflow = true;
      out.a.may_nan = true;
    }
    predict_kernel(label, stores, dt);
    return out;
  }

  // --- interpreting the model ---------------------------------------------

  // Interprets the model the trainer builds for cfg_.model: same template,
  // same Rng seed and construction order as nn::train, so the weights are
  // the run's exact initial weights. Zero kernel launches.
  template <template <class> class Conv>
  void interpret() {
    Rng rng(cfg_.seed);
    nn::TwoLayer<Analyzer, Conv> model(d_.feat_dim, cfg_.hidden, out_dim_,
                                       rng);
    params_ = model.params();
    for (nn::Param* p : params_) {
      w_.push_back(from_mtensor(p->master()));
      gsum_.push_back(TV{});
    }
    cur_dt_ = train_dt_;
    const TV x = input_tv();
    const TV logits = model.forward(*this, x);
    model.backward(*this, xent_site(logits));
    predict_param_grads();
    if (!dtype_trainable(req_)) {
      // PTQ: the run trains in f32 (above) and executes one extra
      // quantized inference forward at the end.
      cur_dt_ = req_;
      (void)model.forward(*this, x);
    }
  }

  std::size_t param_index(const nn::Param& p) const {
    return static_cast<std::size_t>(
        std::find(params_.begin(), params_.end(), &p) - params_.begin());
  }
  const CT& weight(const nn::Param& p) const { return w_[param_index(p)]; }
  std::string site_name(const char* site) const {
    return "L" + std::to_string(layer_) + "." + site;
  }

  TV input_tv() const {
    TV x;
    x.c = CT(static_cast<std::int64_t>(d_.num_vertices()), d_.feat_dim);
    for (std::size_t i = 0; i < d_.features.size(); ++i) {
      x.c.v[i] = d_.features[i];
    }
    // The input is a constant: its worst-case bound IS its value.
    x.a = AbsVal::bounded(x.c.maxabs() * 1.001);
    return x;
  }

  static void relu_forward(TV& t, std::vector<std::uint8_t>& mask) {
    mask.resize(t.c.v.size());
    for (std::size_t i = 0; i < t.c.v.size(); ++i) {
      mask[i] = t.c.v[i] > 0.0 ? 1 : 0;
      if (t.c.v[i] < 0.0) t.c.v[i] = 0.0;
    }
    t.a.may_negative = false;
  }
  static void relu_backward(TV& g, const std::vector<std::uint8_t>& mask) {
    for (std::size_t i = 0; i < g.c.v.size(); ++i) {
      if (mask[i] == 0) g.c.v[i] = 0.0;
    }
  }

  // y = alpha * x + beta * y
  void axpby(const char* site, const TV& x, double alpha, TV& y,
             double beta) {
    for (std::size_t i = 0; i < y.c.v.size(); ++i) {
      y.c.v[i] = alpha * x.c.v[i] + beta * y.c.v[i];
    }
    AbsVal a = AbsVal::bounded(std::abs(alpha) * x.a.hi +
                               std::abs(beta) * y.a.hi);
    a.may_overflow = x.a.may_overflow || y.a.may_overflow;
    a.may_nan = a.may_overflow || x.a.may_nan || y.a.may_nan;
    y.a = a;
    y.grad = x.grad || y.grad;
    y.scale_deg = std::max(x.scale_deg, y.scale_deg);

    SiteVerdict v;
    v.layer = layer_;
    v.op = "axpby";
    v.site = site_name(site);
    v.kernel = std::string("host_axpby_") + std::string(dtype_name(cur_dt_));
    v.active = true;
    v.storage = cur_dt_;
    v.input_hi = eff(y);
    v.fan_in = 2;
    Judge j = judge_store(eff(y), eff_unscaled(y), cur_dt_, y.grad, "none");
    add_row(std::move(v), j, "two-term elementwise combine in range");
  }

  void scale_rows(TV& t) const {
    // Host pre-scale by 1/deg (GCN/GIN backward); bounds can only shrink.
    for (std::int64_t r = 0; r < t.c.rows; ++r) {
      const double deg = static_cast<double>(
          d_.csr.offsets[static_cast<std::size_t>(r) + 1] -
          d_.csr.offsets[static_cast<std::size_t>(r)]);
      const double inv = deg > 0.0 ? 1.0 / deg : 0.0;
      for (std::int64_t f = 0; f < t.c.cols; ++f) {
        t.c.at(r, f) *= inv;
      }
    }
    // abstract bound unchanged (inv <= 1)
  }

  // Loss head: returns dlogits.
  TV xent_site(const TV& logits) {
    predict_tensor("act.logits", effval(logits, eff(logits)), cur_dt_);
    TV dl;
    dl.c = CT(logits.c.rows, logits.c.cols);
    const double count = std::max(1.0, static_cast<double>(train_count_));
    for (std::int64_t r = 0; r < logits.c.rows; ++r) {
      if (d_.train_mask[static_cast<std::size_t>(r)] == 0) continue;
      double mx = -1e300;
      for (int j = 0; j < classes_; ++j) mx = std::max(mx, logits.c.get(r, j));
      double denom = 0;
      for (int j = 0; j < classes_; ++j) {
        denom += std::exp(logits.c.get(r, j) - mx);
      }
      const int y = d_.labels[static_cast<std::size_t>(r)];
      for (int j = 0; j < classes_; ++j) {
        const double p = std::exp(logits.c.get(r, j) - mx) / denom;
        dl.c.at(r, j) = (p - (j == y ? 1.0 : 0.0)) / count;
      }
    }
    dl.a = AbsVal::bounded(2.0 / count);
    dl.a.may_nan = logits.a.may_nan || logits.a.may_overflow;
    dl.a.may_overflow = false;
    dl.grad = true;
    dl.scale_deg = scaled_ ? 1 : 0;

    SiteVerdict v;
    v.layer = 0;
    v.op = "cross_entropy";
    v.site = "loss.xent";
    v.kernel = "host_softmax_xent_f32";
    v.active = true;
    v.storage = cur_dt_;
    v.input_hi = eff(logits);
    v.fan_in = classes_;
    Judge j = judge_store(eff(dl), eff_unscaled(dl), cur_dt_, true,
                          "f32accum");
    v.verdict = j.v;
    v.running_hi = j.running;
    v.protection = j.protection;
    v.reason = j.reason.empty()
                   ? "softmax/CE promoted to f32 (amp autocast table); "
                     "gradient bounded by scale/count"
                   : j.reason;
    add_row(v);
    predict_tensor("grad.logits", effval(dl, eff(dl)), cur_dt_);
    return dl;
  }

  void predict_param_grads() {
    for (std::size_t i = 0; i < gsum_.size(); ++i) {
      if (gsum_[i].c.v.empty()) continue;
      predict_tensor("grad.param" + std::to_string(i),
                     effval(gsum_[i], eff(gsum_[i])), Dtype::kF32);
    }
  }

  // --- GAT's edge chain ------------------------------------------------------

  // s_e = LeakyReLU(el[row] + er[col]); |slope| <= 1.
  TV edge_add_scalars(const char* site, const TV& el, const TV& er,
                      double slope) {
    TV s;
    s.c = CT(static_cast<std::int64_t>(d_.csr.num_edges()), 1);
    for (std::size_t e = 0; e < d_.coo.row.size(); ++e) {
      const double raw =
          el.c.v[static_cast<std::size_t>(d_.coo.row[e])] +
          er.c.v[static_cast<std::size_t>(d_.csr.cols[e])];
      s.c.v[e] = raw >= 0.0 ? raw : slope * raw;
    }
    s.a = AbsVal::bounded(el.a.hi + er.a.hi);
    s.a.may_overflow = el.a.may_overflow || er.a.may_overflow;
    s.a.may_nan = s.a.may_overflow || el.a.may_nan || er.a.may_nan;
    return edge_elementwise(site, nn::Op::kEdgeAddScalars, "edge_addscalar",
                            std::move(s), "none");
  }

  // p = exp(s - mx[row]) with mx the row max of s, so p is in (0, 1]: the
  // Sec. 5.3 range argument.
  TV edge_exp_sub_row(const char* site, const TV& s, const TV& mx) {
    TV p;
    p.c = CT(s.c.rows, 1);
    for (std::size_t e = 0; e < d_.coo.row.size(); ++e) {
      p.c.v[e] =
          std::exp(s.c.v[e] - mx.c.v[static_cast<std::size_t>(d_.coo.row[e])]);
    }
    p.a = AbsVal::nonneg(0.0, 1.0);
    p.a.may_zero = true;
    p.a.may_nan = s.a.may_nan;
    return edge_elementwise(site, nn::Op::kEdgeExp, "edge_expsub",
                            std::move(p), "shadow");
  }

  // alpha = p / dsum[row] with dsum the row sum of p: convex row weights.
  TV edge_div_row(const char* site, const TV& p, const TV& dsum) {
    TV alpha;
    alpha.c = CT(p.c.rows, 1);
    for (std::size_t e = 0; e < d_.coo.row.size(); ++e) {
      const double den = dsum.c.v[static_cast<std::size_t>(d_.coo.row[e])];
      alpha.c.v[e] = den > 0.0 ? p.c.v[e] / den : 0.0;
    }
    alpha.a = AbsVal::nonneg(0.0, 1.0);
    alpha.a.row_stochastic = true;
    alpha.a.may_nan = p.a.may_nan;
    return edge_elementwise(site, nn::Op::kEdgeDivRow, "edge_divrow",
                            std::move(alpha), "convex");
  }

  // t = alpha * dalpha with alpha in [0, 1].
  TV edge_mul(const char* site, const TV& alpha, const TV& dalpha) {
    TV t;
    t.c = CT(dalpha.c.rows, 1);
    for (std::size_t e = 0; e < t.c.v.size(); ++e) {
      t.c.v[e] = alpha.c.v[e] * dalpha.c.v[e];
    }
    t.a = AbsVal::bounded(alpha.a.hi * dalpha.a.hi);
    t.a.may_nan = dalpha.a.may_nan;
    t.a.may_overflow = dalpha.a.may_overflow;
    t.grad = true;
    t.scale_deg = dalpha.scale_deg;
    return edge_elementwise(site, nn::Op::kEdgeMul, "edge_mul", std::move(t),
                            "convex");
  }

  // ds = alpha * (dalpha - c[row]); |ds| <= |dalpha| + |c| for alpha in
  // [0, 1].
  TV edge_softmax_backward(const char* site, const TV& alpha,
                           const TV& dalpha, const TV& c) {
    TV ds;
    ds.c = CT(dalpha.c.rows, 1);
    for (std::size_t e = 0; e < ds.c.v.size(); ++e) {
      ds.c.v[e] = alpha.c.v[e] *
                  (dalpha.c.v[e] -
                   c.c.v[static_cast<std::size_t>(d_.coo.row[e])]);
    }
    ds.a = AbsVal::bounded(alpha.a.hi * (dalpha.a.hi + c.a.hi));
    ds.a.may_nan = dalpha.a.may_nan || c.a.may_nan;
    ds.a.may_overflow = dalpha.a.may_overflow || c.a.may_overflow;
    ds.grad = true;
    ds.scale_deg = dalpha.scale_deg;
    return edge_elementwise(site, nn::Op::kEdgeSoftmaxBackward,
                            "edge_softmax_bwd", std::move(ds), "convex");
  }

  // grad * (pre >= 0 ? 1 : slope); |slope| <= 1 keeps the bound.
  TV edge_leaky_backward(const char* site, const TV& pre, const TV& grad,
                         double slope) {
    TV ds = grad;
    for (std::size_t e = 0; e < ds.c.v.size(); ++e) {
      if (pre.c.v[e] < 0.0) ds.c.v[e] *= slope;
    }
    return edge_elementwise(site, nn::Op::kEdgeLeakyBackward, "edge_leaky_bwd",
                            std::move(ds), "none");
  }

  // out[e] = in[rev(e)]. A permuted softmax loses its row-stochastic
  // structure: column sums of alpha are NOT <= 1.
  TV edge_permute(const char* site, const TV& in) {
    TV perm = in;
    for (std::size_t e = 0; e < perm.c.v.size(); ++e) {
      perm.c.v[e] = in.c.v[static_cast<std::size_t>(rev_[e])];
    }
    perm.a.row_stochastic = false;
    return edge_elementwise(site, nn::Op::kEdgePermute, "edge_permute",
                            std::move(perm), "none");
  }

 private:
  // --- members -------------------------------------------------------------
  const Dataset& d_;
  CheckConfig cfg_;
  CheckResult out_;
  Dtype req_ = Dtype::kF32;
  Dtype train_dt_ = Dtype::kF32;
  Dtype cur_dt_ = Dtype::kF32;
  bool scaled_ = false;
  int classes_ = 0;
  int out_dim_ = 0;
  int layer_ = 0;
  long long train_count_ = 0;
  double wgrowth_ = 0;
  std::vector<nn::Param*> params_;
  std::vector<CT> w_;
  std::vector<TV> gsum_;
  std::vector<eid_t> rev_;
};

}  // namespace

CheckResult analyze(const Dataset& data, const CheckConfig& cfg) {
  return Analyzer(data, cfg).run();
}

std::string fig1c_table(const Dataset& data, nn::ModelKind model,
                        int epochs) {
  struct Cell {
    const char* system;
    nn::SystemMode mode;
    std::optional<Dtype> dt;
  };
  const Cell cells[] = {
      {"DGL-float", nn::SystemMode::kDglFloat, std::nullopt},
      {"DGL-half", nn::SystemMode::kDglHalf, std::nullopt},
      {"HalfGNN", nn::SystemMode::kHalfGnn, std::nullopt},
      {"HalfGNN", nn::SystemMode::kHalfGnn, Dtype::kBf16},
      {"HalfGNN", nn::SystemMode::kHalfGnn, Dtype::kF32},
  };
  std::ostringstream os;
  os << "| system | dtype | verdict | worst site | running bound | needed | "
        "applied |\n";
  os << "|---|---|---|---|---|---|---|\n";
  for (const Cell& cell : cells) {
    CheckConfig cfg;
    cfg.model = model;
    cfg.mode = cell.mode;
    cfg.dtype = cell.dt;
    cfg.epochs = epochs;
    const CheckResult r = analyze(data, cfg);
    // Worst active row decides the cell.
    const SiteVerdict* worst = nullptr;
    for (const SiteVerdict& v : r.verdicts) {
      if (!v.active) continue;
      if (worst == nullptr || static_cast<int>(v.verdict) >
                                  static_cast<int>(worst->verdict) ||
          (v.verdict == worst->verdict && v.running_hi > worst->running_hi)) {
        worst = &v;
      }
    }
    os << "| " << cell.system << " | " << dtype_name(r.requested) << " | "
       << verdict_name(r.overall) << " | "
       << (worst != nullptr ? worst->site + " (" + worst->kernel + ")" : "-")
       << " | "
       << (worst != nullptr ? std::to_string(worst->running_hi) : "-")
       << " | "
       << (worst != nullptr && worst->needed_factor > 0
               ? std::to_string(static_cast<long long>(worst->needed_factor))
               : "-")
       << " | "
       << (worst != nullptr && worst->applied_factor > 0
               ? std::to_string(static_cast<long long>(worst->applied_factor))
               : "-")
       << " |\n";
  }
  return os.str();
}

}  // namespace hg::check
