#include "check/check.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "amp/amp.hpp"
#include "kernels/api.hpp"
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
// The analyzer
// ---------------------------------------------------------------------------

class Analyzer {
 public:
  Analyzer(const Dataset& d, const CheckConfig& cfg) : d_(d), cfg_(cfg) {
    if (!d.labeled) {
      throw std::invalid_argument("hgcheck: dataset has no labels/features");
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
    wgrowth_ = static_cast<double>(cfg.epochs) * cfg.lr * cfg.adam_kappa;

    // Reconstruct the run's exact initial weights: same Rng seed, same
    // construction order as nn::train. Zero kernel launches — make_model
    // only allocates and xavier-inits host tensors.
    Rng rng(cfg.seed);
    model_ = nn::make_model(cfg.model, d.feat_dim, cfg.hidden, out_dim_, rng);
    for (auto* p : model_->params()) {
      w_.push_back(from_mtensor(p->master()));
      gsum_.push_back(TV{});
    }

    // Per-edge row index + degree helpers for the concrete SpMM/edge ops.
    const auto& csr = d.csr;
    erow_.resize(static_cast<std::size_t>(csr.num_edges()));
    for (vid_t r = 0; r < csr.num_vertices; ++r) {
      for (eid_t e = csr.offsets[static_cast<std::size_t>(r)];
           e < csr.offsets[static_cast<std::size_t>(r) + 1]; ++e) {
        erow_[static_cast<std::size_t>(e)] = r;
      }
    }
    rev_ = reverse_edge_permutation(csr);
    train_count_ = 0;
    for (const std::uint8_t m : d.train_mask) train_count_ += m != 0;
  }

  CheckResult run() {
    cur_dt_ = train_dt_;
    walk(/*with_backward=*/true);
    if (!dtype_trainable(req_)) {
      // PTQ: the run trains in f32 (walked above) and executes one extra
      // quantized inference forward at the end.
      cur_dt_ = req_;
      walk(/*with_backward=*/false);
    }
    for (const SiteVerdict& v : out_.verdicts) {
      if (v.active && static_cast<int>(v.verdict) >
                          static_cast<int>(out_.overall)) {
        out_.overall = v.verdict;
      }
    }
    return std::move(out_);
  }

 private:
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

  // --- op sites ------------------------------------------------------------

  // Dense GEMM (host op in the real runtime: half multiplies, float
  // accumulate). `w` is a parameter index into w_; bias < 0 = none.
  TV linear_fwd(int layer, const std::string& site, const TV& x, int widx,
                int bidx) {
    TV out;
    out.c = gemm_c(x.c, false, w_[static_cast<std::size_t>(widx)], false);
    const CT& W = w_[static_cast<std::size_t>(widx)];
    const double whi = W.maxabs() + wgrowth_;
    const double K = static_cast<double>(W.rows);
    out.a = AbsVal::bounded(K * x.a.hi * whi);
    out.a.may_overflow = x.a.may_overflow;
    out.a.may_nan = x.a.may_nan || x.a.may_overflow;
    double bhi = 0.0;
    if (bidx >= 0) {
      const CT& B = w_[static_cast<std::size_t>(bidx)];
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
    v.layer = layer;
    v.op = "gemm";
    v.site = site;
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
  TV linear_bwd_dx(int layer, const std::string& site, const TV& dy,
                   int widx) {
    TV out;
    out.c = gemm_c(dy.c, false, w_[static_cast<std::size_t>(widx)], true);
    const CT& W = w_[static_cast<std::size_t>(widx)];
    const double whi = W.maxabs() + wgrowth_;
    const double K = static_cast<double>(W.cols);
    out.a = AbsVal::bounded(K * dy.a.hi * whi);
    out.a.may_overflow = dy.a.may_overflow;
    out.a.may_nan = dy.a.may_nan || dy.a.may_overflow;
    out.grad = true;
    out.scale_deg = dy.scale_deg;

    SiteVerdict v;
    v.layer = layer;
    v.op = "gemm";
    v.site = site;
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
  void linear_bwd_dw(int layer, const std::string& site, const TV& x_saved,
                     const TV& dy, int widx, int bidx) {
    TV dw;
    dw.c = gemm_c(x_saved.c, true, dy.c, false);
    const double N = static_cast<double>(x_saved.c.rows);
    dw.a = AbsVal::bounded(N * x_saved.a.hi * dy.a.hi);
    dw.a.may_overflow = dy.a.may_overflow || x_saved.a.may_overflow;
    dw.a.may_nan = dw.a.may_overflow || dy.a.may_nan || x_saved.a.may_nan;
    dw.grad = true;
    dw.scale_deg = dy.scale_deg + x_saved.scale_deg;
    accumulate_grad(widx, dw);

    SiteVerdict v;
    v.layer = layer;
    v.op = "gemm";
    v.site = site;
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

    if (bidx >= 0) {
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
      accumulate_grad(bidx, db);
    }
  }

  void accumulate_grad(int pidx, const TV& g) {
    TV& dst = gsum_[static_cast<std::size_t>(pidx)];
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
  // kernel predictions for the active entry's launches.
  TV spmm_site(int layer, const std::string& site, const TV& x, const TV* ew,
               bool ew_permuted, kernels::Reduce reduce, bool transposed) {
    const int feat = static_cast<int>(x.c.cols);
    // Concrete aggregation, exact.
    TV out;
    out.c = CT(static_cast<std::int64_t>(d_.csr.num_vertices), feat);
    spmm_concrete(x.c, ew != nullptr ? &ew->c : nullptr, ew_permuted, reduce,
                  transposed, out.c);

    const bool convex = ew != nullptr && ew->a.row_stochastic && !ew_permuted;
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
      v.layer = layer;
      v.op = transposed ? "spmm_transposed" : "spmm";
      v.site = site;
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
        // running partials AND final stores, joined.
        AbsVal stores = effval(x, std::max(j.running, final_bound(out, reduce, Mterm)));
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

  double final_bound(const TV& out, kernels::Reduce reduce, double M) const {
    // Final stored values: mean/max stay at one input magnitude; the
    // envelope of the concrete output is exact at epoch 0.
    (void)reduce;
    (void)M;
    return eff(out);
  }

  // SDDMM per-edge dot (GAT backward): fan-in = feature width.
  TV sddmm_site(int layer, const std::string& site, const TV& a_rows,
                const TV& b_cols) {
    const int feat = static_cast<int>(a_rows.c.cols);
    TV out;
    out.c = CT(static_cast<std::int64_t>(d_.csr.num_edges()), 1);
    for (std::size_t e = 0; e < erow_.size(); ++e) {
      const auto r = static_cast<std::int64_t>(erow_[e]);
      const auto c = static_cast<std::int64_t>(
          d_.csr.cols[e]);
      double acc = 0;
      for (int f = 0; f < feat; ++f) {
        acc += a_rows.c.get(r, f) * b_cols.c.get(c, f);
      }
      out.c.v[e] = acc;
    }
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
      v.layer = layer;
      v.op = "sddmm";
      v.site = site;
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
  TV seg_reduce_site(int layer, const std::string& site, const TV& ev,
                     kernels::SegReduce sr, std::string protection) {
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
    v.layer = layer;
    v.op = "seg_reduce";
    v.site = site;
    v.kernel = label;
    v.active = true;
    v.storage = dt;
    v.input_hi = M;
    v.fan_in = dmax;
    Judge j = judge_reduction(
        row, is_sum ? kernels::Reduce::kSum : kernels::Reduce::kMax, M, M1,
        dmax, 1, false, ev.grad);
    if (!protection.empty() && j.v == Verdict::kSafe) {
      j.protection = std::move(protection);
    }
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

  // The table row the runtime runs for `op` at this walk's mode and dtype
  // (level 0: the kernel that actually runs).
  const nn::KernelRow& active_row(nn::Op op) const {
    return nn::kernel_row(
        nn::dispatch_chain(op, cfg_.mode, cur_dt_).at(0).kernel);
  }

  // Elementwise edge op: one launched kernel, store-range verdict. Edge
  // sites are named by the kernel they launch.
  TV edge_elementwise(int layer, nn::Op kop, const std::string& op,
                      const std::string& site, TV out,
                      std::string protection) {
    const nn::KernelRow& row = active_row(kop);
    const Dtype dt = row.storage;
    const std::string_view label = row.launched().front();
    SiteVerdict v;
    v.layer = layer;
    v.op = op;
    v.site = site;
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

  // --- concrete SpMM -------------------------------------------------------
  void spmm_concrete(const CT& x, const CT* ew, bool ew_permuted,
                     kernels::Reduce reduce, bool transposed, CT& out) const {
    const std::int64_t feat = x.cols;
    const bool is_max = reduce == kernels::Reduce::kMax;
    std::vector<double> degs(static_cast<std::size_t>(out.rows), 0.0);
    if (is_max) {
      std::fill(out.v.begin(), out.v.end(), -1e300);
    }
    for (std::size_t e = 0; e < erow_.size(); ++e) {
      // transposed: aggregate along reversed edges (A^T; topology is
      // symmetric, values flow col -> row swapped).
      const auto src = static_cast<std::int64_t>(
          transposed ? erow_[e] : d_.csr.cols[e]);
      const auto dstr = static_cast<std::int64_t>(
          transposed ? d_.csr.cols[e] : erow_[e]);
      const double w =
          ew != nullptr
              ? ew->v[ew_permuted ? static_cast<std::size_t>(
                                        rev_[e])
                                  : e]
              : 1.0;
      degs[static_cast<std::size_t>(dstr)] += 1.0;
      for (std::int64_t f = 0; f < feat; ++f) {
        const double val = w * x.get(src, f);
        double& slot = out.v[static_cast<std::size_t>(dstr * feat + f)];
        slot = is_max ? std::max(slot, val) : slot + val;
      }
    }
    for (std::int64_t r = 0; r < out.rows; ++r) {
      const double deg = degs[static_cast<std::size_t>(r)];
      for (std::int64_t f = 0; f < feat; ++f) {
        double& slot = out.v[static_cast<std::size_t>(r * feat + f)];
        if (is_max) {
          if (deg == 0.0) slot = 0.0;
        } else if (reduce == kernels::Reduce::kMean && deg > 0.0) {
          slot /= deg;
        }
      }
    }
  }

  // --- model walks ---------------------------------------------------------

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

  TV relu_tv(TV t, std::vector<std::uint8_t>& mask) {
    mask.resize(t.c.v.size());
    for (std::size_t i = 0; i < t.c.v.size(); ++i) {
      mask[i] = t.c.v[i] > 0.0 ? 1 : 0;
      if (t.c.v[i] < 0.0) t.c.v[i] = 0.0;
    }
    t.a.may_negative = false;
    return t;
  }
  static TV relu_bwd_tv(TV g, const std::vector<std::uint8_t>& mask) {
    for (std::size_t i = 0; i < g.c.v.size(); ++i) {
      if (mask[i] == 0) g.c.v[i] = 0.0;
    }
    return g;
  }

  // y = alpha * x + beta * y
  static TV axpby_tv(const TV& x, double alpha, TV y, double beta) {
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
    return y;
  }

  TV scale_rows_tv(TV t) const {
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
    return t;  // abstract bound unchanged (inv <= 1)
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

  void walk(bool with_backward) {
    switch (cfg_.model) {
      case nn::ModelKind::kGcn: walk_gcn(with_backward); break;
      case nn::ModelKind::kGin: walk_gin(with_backward); break;
      case nn::ModelKind::kGat: walk_gat(with_backward); break;
    }
    if (with_backward) predict_param_grads();
  }

  // --- GCN -----------------------------------------------------------------
  void walk_gcn(bool bwd) {
    TV x = input_tv();
    TV z1 = linear_fwd(1, "L1.fwd.gemm", x, 0, 1);
    TV h1 = spmm_site(1, "L1.fwd.spmm", z1, nullptr, false,
                      kernels::Reduce::kMean, false);
    std::vector<std::uint8_t> mask;
    TV h1r = relu_tv(h1, mask);
    TV z2 = linear_fwd(2, "L2.fwd.gemm", h1r, 2, 3);
    TV logits = spmm_site(2, "L2.fwd.spmm", z2, nullptr, false,
                          kernels::Reduce::kMean, false);
    if (!bwd) return;
    TV dl = xent_site(logits);
    // L2 backward: t = dy / deg (host), dz = A^T-sum, then linear backward.
    TV t2 = scale_rows_tv(dl);
    TV dz2 = spmm_site(2, "L2.bwd.spmmT", t2, nullptr, false,
                       kernels::Reduce::kSum, true);
    linear_bwd_dw(2, "L2.bwd.dW", h1r, dz2, 2, 3);
    TV dh1 = linear_bwd_dx(2, "L2.bwd.dX", dz2, 2);
    dh1 = relu_bwd_tv(std::move(dh1), mask);
    TV t1 = scale_rows_tv(dh1);
    TV dz1 = spmm_site(1, "L1.bwd.spmmT", t1, nullptr, false,
                       kernels::Reduce::kSum, true);
    linear_bwd_dw(1, "L1.bwd.dW", x, dz1, 0, 1);
  }

  // --- GIN -----------------------------------------------------------------
  struct GinState {
    TV comb, h_pre;  // saved activations for backward
    std::vector<std::uint8_t> mask;
  };

  TV gin_conv_fwd(int layer, const TV& x, int base, GinState& st) {
    const bool eq4 = cfg_.mode == nn::SystemMode::kHalfGnn;
    const double lambda = eq4 ? 0.1 : 1.0;
    const std::string l = "L" + std::to_string(layer);
    TV agg = spmm_site(layer, l + ".fwd.spmm", x, nullptr, false,
                       kernels::Reduce::kMean, false);
    TV comb = axpby_tv(x, 1.0, std::move(agg), lambda);
    axpby_row(layer, l + ".fwd.axpby", comb);
    st.comb = comb;
    TV h = linear_fwd(layer, l + ".fwd.gemm1", comb, base, base + 1);
    TV hr = relu_tv(std::move(h), st.mask);
    st.h_pre = hr;
    return linear_fwd(layer, l + ".fwd.gemm2", hr, base + 2, base + 3);
  }

  TV gin_conv_bwd(int layer, const TV& x_in, const TV& dout, int base,
                  const GinState& st) {
    const bool eq4 = cfg_.mode == nn::SystemMode::kHalfGnn;
    const double lambda = eq4 ? 0.1 : 1.0;
    const std::string l = "L" + std::to_string(layer);
    linear_bwd_dw(layer, l + ".bwd.dW2", st.h_pre, dout, base + 2, base + 3);
    TV dh = linear_bwd_dx(layer, l + ".bwd.dX2", dout, base + 2);
    dh = relu_bwd_tv(std::move(dh), st.mask);
    linear_bwd_dw(layer, l + ".bwd.dW1", st.comb, dh, base, base + 1);
    TV dcomb = linear_bwd_dx(layer, l + ".bwd.dX1", dh, base);
    TV t = scale_rows_tv(dcomb);
    TV dagg = spmm_site(layer, l + ".bwd.spmmT", t, nullptr, false,
                        kernels::Reduce::kSum, true);
    TV dx = axpby_tv(dcomb, 1.0, std::move(dagg), lambda);
    axpby_row(layer, l + ".bwd.axpby", dx);
    (void)x_in;
    return dx;
  }

  void axpby_row(int layer, const std::string& site, const TV& out) {
    SiteVerdict v;
    v.layer = layer;
    v.op = "axpby";
    v.site = site;
    v.kernel = std::string("host_axpby_") + std::string(dtype_name(cur_dt_));
    v.active = true;
    v.storage = cur_dt_;
    v.input_hi = eff(out);
    v.fan_in = 2;
    Judge j = judge_store(eff(out), eff_unscaled(out), cur_dt_, out.grad,
                          "none");
    add_row(std::move(v), j, "two-term elementwise combine in range");
  }

  void walk_gin(bool bwd) {
    TV x = input_tv();
    GinState s1, s2;
    TV h = gin_conv_fwd(1, x, 0, s1);
    std::vector<std::uint8_t> top_mask;
    TV hr = relu_tv(std::move(h), top_mask);
    TV logits = gin_conv_fwd(2, hr, 4, s2);
    if (!bwd) return;
    TV dl = xent_site(logits);
    TV dh = gin_conv_bwd(2, hr, dl, 4, s2);
    dh = relu_bwd_tv(std::move(dh), top_mask);
    (void)gin_conv_bwd(1, x, dh, 0, s1);
  }

  // --- GAT -----------------------------------------------------------------
  struct GatState {
    TV z, s, alpha;
  };

  TV gat_conv_fwd(int layer, const TV& x, int base, GatState& st) {
    const std::string l = "L" + std::to_string(layer);
    TV z = linear_fwd(layer, l + ".fwd.gemm", x, base, -1);
    st.z = z;
    // el = z a_l, er = z a_r: K = out-width dots (float accumulate).
    TV el = linear_fwd(layer, l + ".fwd.gemm.el", z, base + 1, -1);
    TV er = linear_fwd(layer, l + ".fwd.gemm.er", z, base + 2, -1);
    // s_e = LeakyReLU(el[row] + er[col])
    TV s;
    s.c = CT(static_cast<std::int64_t>(d_.csr.num_edges()), 1);
    for (std::size_t e = 0; e < erow_.size(); ++e) {
      const double raw =
          el.c.v[static_cast<std::size_t>(erow_[e])] +
          er.c.v[static_cast<std::size_t>(d_.csr.cols[e])];
      s.c.v[e] = raw >= 0.0 ? raw : 0.2 * raw;
    }
    s.a = AbsVal::bounded(el.a.hi + er.a.hi);
    s.a.may_overflow = el.a.may_overflow || er.a.may_overflow;
    s.a.may_nan = s.a.may_overflow || el.a.may_nan || er.a.may_nan;
    s = edge_elementwise(layer, nn::Op::kEdgeAddScalars, "edge_addscalar",
                         l + ".fwd.scores", std::move(s), "none");
    st.s = s;
    // Row max (shadow half under HalfGNN: max never amplifies).
    TV mx = seg_reduce_site(layer, l + ".fwd.segmax", s,
                            kernels::SegReduce::kMax, "shadow");
    // p = exp(s - mx[row]) in (0, 1]: the Sec. 5.3 range argument.
    TV p;
    p.c = CT(s.c.rows, 1);
    for (std::size_t e = 0; e < erow_.size(); ++e) {
      p.c.v[e] = std::exp(s.c.v[e] - mx.c.v[static_cast<std::size_t>(erow_[e])]);
    }
    p.a = AbsVal::nonneg(0.0, 1.0);
    p.a.may_zero = true;
    p.a.may_nan = s.a.may_nan;
    p = edge_elementwise(layer, nn::Op::kEdgeExp, "edge_expsub",
                         l + ".fwd.exp", std::move(p), "shadow");
    TV dsum = seg_reduce_site(layer, l + ".fwd.segsum", p,
                              kernels::SegReduce::kSum, "shadow");
    // alpha = p / dsum[row]: convex row weights.
    TV alpha;
    alpha.c = CT(p.c.rows, 1);
    for (std::size_t e = 0; e < erow_.size(); ++e) {
      const double den = dsum.c.v[static_cast<std::size_t>(erow_[e])];
      alpha.c.v[e] = den > 0.0 ? p.c.v[e] / den : 0.0;
    }
    alpha.a = AbsVal::nonneg(0.0, 1.0);
    alpha.a.row_stochastic = true;
    alpha.a.may_nan = p.a.may_nan;
    alpha = edge_elementwise(layer, nn::Op::kEdgeDivRow, "edge_divrow",
                             l + ".fwd.softmax", std::move(alpha), "convex");
    alpha.a.row_stochastic = true;  // division preserves the structure
    st.alpha = alpha;
    return spmm_site(layer, l + ".fwd.spmm", z, &alpha, false,
                     kernels::Reduce::kSum, false);
  }

  TV gat_conv_bwd(int layer, const TV& x_in, const TV& dy, int base,
                  const GatState& st) {
    const std::string l = "L" + std::to_string(layer);
    TV dalpha = sddmm_site(layer, l + ".bwd.sddmm", dy, st.z);
    // dz aggregation term: alpha rides through edge_permute (loses the
    // row-stochastic structure: column sums of alpha are NOT <= 1).
    TV alpha_p = st.alpha;
    alpha_p.a.row_stochastic = false;
    alpha_p = edge_elementwise(layer, nn::Op::kEdgePermute, "edge_permute",
                               l + ".bwd.permA", std::move(alpha_p), "none");
    TV dz = spmm_site(layer, l + ".bwd.spmmT", dy, &alpha_p, true,
                      kernels::Reduce::kSum, true);
    // Softmax backward chain.
    TV t;
    t.c = CT(dalpha.c.rows, 1);
    for (std::size_t e = 0; e < t.c.v.size(); ++e) {
      t.c.v[e] = st.alpha.c.v[e] * dalpha.c.v[e];
    }
    t.a = AbsVal::bounded(dalpha.a.hi);  // alpha <= 1
    t.a.may_nan = dalpha.a.may_nan;
    t.a.may_overflow = dalpha.a.may_overflow;
    t.grad = true;
    t.scale_deg = dalpha.scale_deg;
    t = edge_elementwise(layer, nn::Op::kEdgeMul, "edge_mul", l + ".bwd.mul",
                         std::move(t), "convex");
    TV csum = seg_reduce_site(layer, l + ".bwd.segsum.c", t,
                              kernels::SegReduce::kSum, "");
    // ds = alpha * (dalpha - csum[row]); |ds| <= |dalpha| + |csum|.
    TV ds;
    ds.c = CT(dalpha.c.rows, 1);
    for (std::size_t e = 0; e < ds.c.v.size(); ++e) {
      ds.c.v[e] = st.alpha.c.v[e] *
                  (dalpha.c.v[e] -
                   csum.c.v[static_cast<std::size_t>(erow_[e])]);
    }
    ds.a = AbsVal::bounded(dalpha.a.hi + csum.a.hi);
    ds.a.may_nan = dalpha.a.may_nan || csum.a.may_nan;
    ds.a.may_overflow = dalpha.a.may_overflow || csum.a.may_overflow;
    ds.grad = true;
    ds.scale_deg = dalpha.scale_deg;
    ds = edge_elementwise(layer, nn::Op::kEdgeSoftmaxBackward,
                          "edge_softmax_bwd", l + ".bwd.softmax",
                          std::move(ds), "convex");
    // LeakyReLU backward: multiply by 1 or slope.
    for (std::size_t e = 0; e < ds.c.v.size(); ++e) {
      if (st.s.c.v[e] < 0.0) ds.c.v[e] *= 0.2;
    }
    ds = edge_elementwise(layer, nn::Op::kEdgeLeakyBackward,
                          "edge_leaky_bwd", l + ".bwd.leaky", std::move(ds),
                          "none");
    TV del = seg_reduce_site(layer, l + ".bwd.segsum.del", ds,
                             kernels::SegReduce::kSum, "");
    TV ds_rev = ds;
    {
      TV perm;
      perm.c = CT(ds.c.rows, 1);
      for (std::size_t e = 0; e < perm.c.v.size(); ++e) {
        perm.c.v[e] = ds.c.v[static_cast<std::size_t>(rev_[e])];
      }
      perm.a = ds.a;
      perm.grad = ds.grad;
      perm.scale_deg = ds.scale_deg;
      ds_rev = edge_elementwise(layer, nn::Op::kEdgePermute, "edge_permute",
                                l + ".bwd.permDs", std::move(perm), "none");
    }
    TV der = seg_reduce_site(layer, l + ".bwd.segsum.der", ds_rev,
                             kernels::SegReduce::kSum, "");
    // Attention-vector grads: dal = z^T del, dar = z^T der (f32 stores).
    linear_bwd_dw_vec(layer, l + ".bwd.dal", st.z, del, base + 1);
    linear_bwd_dw_vec(layer, l + ".bwd.dar", st.z, der, base + 2);
    // dz += del a_l^T + der a_r^T (rank-1, magnitudes bounded by |del||a|).
    {
      const CT& al = w_[static_cast<std::size_t>(base + 1)];
      const CT& ar = w_[static_cast<std::size_t>(base + 2)];
      const double alhi = al.maxabs() + wgrowth_;
      const double arhi = ar.maxabs() + wgrowth_;
      for (std::int64_t r = 0; r < dz.c.rows; ++r) {
        for (std::int64_t f = 0; f < dz.c.cols; ++f) {
          dz.c.at(r, f) += del.c.v[static_cast<std::size_t>(r)] *
                               al.get(f, 0) +
                           der.c.v[static_cast<std::size_t>(r)] *
                               ar.get(f, 0);
        }
      }
      dz.a.hi += del.a.hi * alhi + der.a.hi * arhi;
      dz.a.may_nan = dz.a.may_nan || del.a.may_nan || der.a.may_nan;
    }
    linear_bwd_dw(layer, l + ".bwd.dW", x_in, dz, base, -1);
    return linear_bwd_dx(layer, l + ".bwd.dX", dz, base);
  }

  // dal = z^T del: (out x 1) f32 gradient for an attention vector.
  void linear_bwd_dw_vec(int layer, const std::string& site, const TV& z,
                         const TV& seg, int pidx) {
    TV g;
    g.c = gemm_c(z.c, true, seg.c, false);
    const double N = static_cast<double>(z.c.rows);
    g.a = AbsVal::bounded(N * z.a.hi * seg.a.hi);
    g.a.may_nan = z.a.may_nan || seg.a.may_nan;
    g.grad = true;
    g.scale_deg = seg.scale_deg;
    accumulate_grad(pidx, g);

    SiteVerdict v;
    v.layer = layer;
    v.op = "gemm";
    v.site = site;
    v.kernel = "host_gemm_f32";
    v.active = true;
    v.storage = Dtype::kF32;
    v.input_hi = eff(seg);
    v.fan_in = static_cast<long long>(N);
    Judge j = judge_store(N * eff(z) * eff(seg),
                          N * eff_unscaled(z) * eff_unscaled(seg),
                          Dtype::kF32, true, "f32accum");
    v.verdict = j.v;
    v.running_hi = j.running;
    v.protection = j.protection;
    v.reason = j.reason.empty() ? "attention-vector gradient in f32"
                                : j.reason;
    add_row(v);
  }

  void walk_gat(bool bwd) {
    TV x = input_tv();
    GatState s1, s2;
    TV h = gat_conv_fwd(1, x, 0, s1);
    std::vector<std::uint8_t> mask;
    TV hr = relu_tv(std::move(h), mask);
    TV logits = gat_conv_fwd(2, hr, 3, s2);
    if (!bwd) return;
    TV dl = xent_site(logits);
    TV dh = gat_conv_bwd(2, hr, dl, 3, s2);
    dh = relu_bwd_tv(std::move(dh), mask);
    (void)gat_conv_bwd(1, x, dh, 0, s1);
  }

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
  long long train_count_ = 0;
  double wgrowth_ = 0;
  std::unique_ptr<nn::Model> model_;
  std::vector<CT> w_;
  std::vector<TV> gsum_;
  std::vector<vid_t> erow_;
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
