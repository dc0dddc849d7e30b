#include "nn/trainer.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "ckpt/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/executor.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::nn {

TrainConfig default_config(ModelKind kind) {
  TrainConfig cfg;
  switch (kind) {
    case ModelKind::kGcn:
      cfg.lr = 0.01f;
      break;
    case ModelKind::kGat:
      cfg.lr = 0.005f;
      break;
    case ModelKind::kGin:
      cfg.lr = 0.01f;
      break;
  }
  return cfg;
}

namespace {

// Fig. 6 memory model (full details in EXPERIMENTS.md): DGL materializes
// COO + CSR + CSC and carries measured framework overhead on its state
// tensors [GNNBench]; HalfGNN keeps COO + CSR plus its small staging
// workspace.
void fill_memory_model(MemoryMeter& m, SystemMode mode, const Dataset& d,
                       int hidden) {
  const auto e = static_cast<std::uint64_t>(d.num_edges());
  const auto n = static_cast<std::uint64_t>(d.num_vertices());
  const std::uint64_t coo = 2 * 4 * e;
  const std::uint64_t csr = 4 * e + 8 * (n + 1);
  if (mode == SystemMode::kHalfGnn) {
    m.graph_bytes = coo + csr;
    const auto ctas = static_cast<std::uint64_t>(
        kernels::num_ctas_for_edges(d.num_edges()));
    m.workspace_bytes = ctas * static_cast<std::uint64_t>(hidden) * 2 + ctas * 4;
    m.framework_overhead = 0;
  } else {
    m.graph_bytes = coo + 2 * csr;  // + CSC
    m.workspace_bytes = 0;
    m.framework_overhead =
        static_cast<std::uint64_t>(0.35 * static_cast<double>(m.state_bytes));
  }
}

// Identifies a (model, mode, dataset, hyperparameter) combination; a
// checkpoint from a different run configuration must not be resumed into
// this one. lr is fingerprinted by its float bits, not its decimal print.
std::string run_fingerprint(ModelKind kind, SystemMode mode, const Dataset& d,
                            const TrainConfig& cfg, bool override_active,
                            Dtype req) {
  std::uint32_t lr_bits = 0;
  std::memcpy(&lr_bits, &cfg.lr, sizeof lr_bits);
  char lr_hex[16];
  std::snprintf(lr_hex, sizeof lr_hex, "%08x", lr_bits);
  return std::string(model_name(kind)) + "|" + mode_name(mode) + "|" + d.name +
         "|e" + std::to_string(cfg.epochs) + "|lr" + lr_hex + "|h" +
         std::to_string(cfg.hidden) + "|s" + std::to_string(cfg.seed) + "|" +
         (override_active ? std::string(dtype_name(req))
                          : std::string("mode"));
}

}  // namespace

TrainResult train(ModelKind kind, SystemMode mode, const Dataset& d,
                  const TrainConfig& cfg) {
  if (!d.labeled) {
    throw std::invalid_argument("train: dataset has no labels/features");
  }
  Rng rng(cfg.seed);
  GraphCtx g(d.csr, d.coo);
  const int classes = d.num_classes;
  const int out_dim = pad_feat(classes);  // feature padding for half kernels

  // Precision lattice: the requested dtype defaults to the mode-implied one
  // (bit-for-bit historical behavior when cfg.dtype is unset). PTQ dtypes
  // (i8/b1) are not trainable — they train in f32 and apply the quantized
  // forward only at the post-training eval below.
  const Dtype req = cfg.dtype.value_or(working_dtype(mode));
  const Dtype train_dt = dtype_trainable(req) ? req : Dtype::kF32;
  const bool override_active = cfg.dtype.has_value();
  // A width some dispatched kernel cannot take fails here, before epoch 0
  // (the PTQ dtypes add their eval forward's chains).
  check_feature_widths(kind, mode, train_dt, d.feat_dim, cfg.hidden, out_dim);
  if (req != train_dt) {
    check_feature_widths(kind, mode, req, d.feat_dim, cfg.hidden, out_dim);
  }
  auto model = make_model(kind, d.feat_dim, cfg.hidden, out_dim, rng);

  // The dense ops run on the stream's worker pool for the whole run, the
  // feature cast and the PTQ eval included (tensor/dense_ops.hpp).
  simt::Stream& stream =
      cfg.stream != nullptr ? *cfg.stream : simt::default_stream();
  const DensePoolScope pool_scope(&stream.device());

  // Input features, cast once to the working dtype (a one-time cost, not
  // part of the per-epoch ledger).
  MTensor x_master = MTensor::f32(d.num_vertices(), d.feat_dim);
  std::copy(d.features.begin(), d.features.end(), x_master.f().begin());
  MTensor x = train_dt == Dtype::kF32 ? std::move(x_master)
                                      : to_dtype(x_master, train_dt, nullptr);

  // Loss scaling is an f16-range workaround; bf16 keeps the f32 exponent and
  // trains unscaled (amp::needs_loss_scaling), exactly like f32.
  const bool half = amp::needs_loss_scaling(train_dt);
  amp::GradScaler scaler;
  TrainResult res;
  int adam_t = 0;
  TrainGuard guard(cfg.guard);
  const bool use_guard = cfg.guard.enabled;

  // hgprof numerics telemetry: the profiler lives on the stream's device and
  // samples activations/gradients read-only, so arming it never perturbs the
  // run. Every guard decision below also lands in its audit log.
  obs::prof::Profiler& prof = stream.device().profiler();
  const bool prof_numerics = prof.active() && prof.config().numerics();
  if (use_guard) guard.set_profiler(&prof);
  const auto prof_sample = [&prof](const std::string& name, const MTensor& t) {
    if (t.dtype() == Dtype::kF16) {
      prof.sample_tensor(name, t.h());
    } else if (t.dtype() == Dtype::kBf16) {
      prof.sample_tensor(name, t.b());
    } else {
      prof.sample_tensor(name, t.f());
    }
  };

  // Durable checkpoint store; the torn-write plan comes from the device's
  // fault config (torncrash clauses live in the write path, not the launch
  // path, so they never perturb kernel execution).
  std::string fingerprint;
  std::unique_ptr<ckpt::Store> store;
  if (!cfg.checkpoint_dir.empty()) {
    fingerprint = run_fingerprint(kind, mode, d, cfg, override_active, req);
    ckpt::StoreConfig scfg;
    scfg.dir = cfg.checkpoint_dir;
    const auto& torn = stream.device().faults().config().torncrashes;
    if (!torn.empty()) {
      scfg.torn_epoch = torn.front().epoch;
      scfg.torn_at = torn.front().at;
    }
    store = std::make_unique<ckpt::Store>(scfg);
  }

  int start_epoch = 0;
  bool resumed = false;
  if (store != nullptr && cfg.resume) {
    const ckpt::LoadInfo info = store->load(&prof);
    if (info.found) {
      const ckpt::TrainState& st = info.state;
      if (st.fingerprint != fingerprint) {
        throw std::invalid_argument("ckpt: fingerprint mismatch: checkpoint '" +
                                    st.fingerprint + "' vs run '" +
                                    fingerprint + "'");
      }
      restore_model_state(st.model, model->params());
      adam_t = st.model.adam_t;
      scaler.restore(st.scaler);
      rng.set_state(st.rng);
      guard.restore(st.guard);
      static_cast<ckpt::ResultState&>(res) = st.result;
      // Replace the observability state wholesale: the resumed process's
      // trace/metrics continue exactly where the crashed one left off (this
      // also discards the ckpt.load.* counters the load itself published, so
      // the finished artifacts stay byte-identical to an uninterrupted run).
      if (!st.registry_blob.empty()) {
        obs::registry().load_state(st.registry_blob);
      }
      if (!st.tracer_blob.empty()) obs::tracer().load_state(st.tracer_blob);
      start_epoch = st.epoch;
      resumed = true;
    }
  }

  std::optional<obs::Span> run_span;
  if (resumed && obs::tracer().top_open_token() != 0) {
    // The restored trace still holds this run's open span; adopt it so the
    // closing args land on the original instead of opening a second one.
    run_span.emplace(obs::Span::AdoptSpan{}, obs::tracer().top_open_token());
  } else {
    run_span.emplace(std::string("train:") + model_name(kind) + "/" +
                         mode_name(mode),
                     "run");
    run_span->arg("model", model_name(kind));
    run_span->arg("mode", mode_name(mode));
    run_span->arg("dataset", d.name);
    run_span->arg("vertices", static_cast<std::int64_t>(d.num_vertices()));
    run_span->arg("edges", static_cast<std::int64_t>(d.num_edges()));
    run_span->arg("epochs", static_cast<std::int64_t>(cfg.epochs));
    if (override_active) run_span->arg("dtype", std::string(dtype_name(req)));
  }
  const bool snapshot_metrics = obs::registry().enabled();

  for (int epoch = start_epoch; epoch < cfg.epochs; ++epoch) {
    if (store != nullptr && cfg.checkpoint_every > 0 &&
        epoch % cfg.checkpoint_every == 0 &&
        !(resumed && epoch == start_epoch)) {
      // Durable snapshot of everything the loop body reads, taken before the
      // epoch runs: a resume lands exactly here. Writing publishes no
      // metrics/trace events, so an uninterrupted run with checkpointing on
      // is byte-identical to one with it off.
      ckpt::TrainState st;
      st.fingerprint = fingerprint;
      st.epoch = epoch;
      st.model =
          capture_model_state(epoch, adam_t, scaler.scale(), model->params());
      st.scaler = scaler.trajectory();
      st.rng = rng.state();
      st.guard = guard.state();
      st.result = res;  // the ckpt::ResultState part
      if (obs::registry().enabled()) {
        st.registry_blob = obs::registry().save_state();
      }
      if (obs::tracer().enabled()) st.tracer_blob = obs::tracer().save_state();
      store->write(st);  // throws ckpt::SimulatedCrash under torncrash
    }

    prof.begin_epoch(epoch);
    obs::Span epoch_span("epoch", "epoch");
    epoch_span.arg("epoch", static_cast<std::int64_t>(epoch));

    // A scratch ledger keeps the dense/convert trace hooks charging the
    // modeled timeline on traced epochs beyond epoch 0, without touching
    // the epoch_ledger contract (one representative epoch).
    CostLedger scratch_ledger;
    SparseCtx ctx;
    ctx.stream = cfg.stream != nullptr ? cfg.stream : &simt::default_stream();
    ctx.guard = use_guard ? &guard : nullptr;
    ctx.mode = mode;
    ctx.dtype_override =
        override_active ? std::optional<Dtype>(train_dt) : std::nullopt;
    ctx.profiled = (cfg.profile_first_epoch && epoch == 0) || cfg.trace;
    ctx.ledger = cfg.profile_first_epoch && epoch == 0 ? &res.epoch_ledger
                 : ctx.profiled                        ? &scratch_ledger
                                                       : nullptr;
    ctx.meter = epoch == 0 ? &res.memory : nullptr;
    if (ctx.ledger != nullptr) {
      // Framework dispatch per launched kernel: DGL's Python/op overhead
      // (GNNBench) vs HalfGNN's leaner integrated path.
      ctx.ledger->dispatch_us_per_kernel =
          mode == SystemMode::kHalfGnn ? 10.0 : 25.0;
    }

    if (use_guard) {
      guard.maybe_checkpoint(epoch, model->params(), scaler, adam_t);
    }

    for (auto* p : model->params()) p->zero_grad();

    MTensor logits = [&] {
      HG_TRACE_SCOPE("forward", "phase");
      return model->forward(ctx, g, x);
    }();
    const float gscale = half ? scaler.scale() : 1.0f;
    MTensor dlogits;
    const LossResult lr = [&] {
      HG_TRACE_SCOPE("loss", "phase");
      return softmax_xent(logits, d.labels, d.train_mask,
                          /*use_masked=*/true, classes, gscale, &dlogits,
                          ctx.ledger);
    }();
    {
      HG_TRACE_SCOPE("backward", "phase");
      model->backward(ctx, g, dlogits);
    }
    if (prof_numerics) {
      prof_sample("act.logits", logits);
      prof_sample("grad.logits", dlogits);
      int pi = 0;
      for (auto* p : model->params()) {
        // Gradients accumulate in f32 regardless of mode; sampled still
        // carrying the loss scale, which is what the kernels actually saw.
        prof.sample_tensor("grad.param" + std::to_string(pi++), p->grad().f());
      }
    }

    obs::Span opt_span("optimizer", "phase");
    const float inv_scale = 1.0f / gscale;
    bool nonfinite = false;
    for (auto* p : model->params()) {
      nonfinite = nonfinite || p->grad_nonfinite(inv_scale);
    }
    const bool do_step = half ? scaler.update(nonfinite) : !nonfinite;
    if (do_step) {
      ++adam_t;
      for (auto* p : model->params()) {
        p->adam_step(cfg.lr, 0.9f, 0.999f, 1e-8f, inv_scale, adam_t);
      }
    }
    opt_span.arg("stepped", do_step ? "yes" : "skipped");
    opt_span.arg("loss_scale", static_cast<double>(gscale));
    prof.note_loss_scale(half ? scaler.scale() : 1.0f);

    res.losses.push_back(lr.loss);
    if (std::isnan(lr.loss)) {
      if (res.first_nan_epoch < 0) res.first_nan_epoch = epoch;
      ++res.nan_loss_epochs;
    }
    if (use_guard && guard.note_loss(lr.loss)) {
      // The NaN streak hit the trigger: restore the last good checkpoint
      // instead of training on from polluted state.
      guard.rollback(model->params(), scaler, adam_t);
    }
    const double acc =
        masked_accuracy(logits, d.labels, d.train_mask, 0, classes);
    res.test_accs.push_back(acc);
    res.best_test_acc = std::max(res.best_test_acc, acc);

    epoch_span.arg("loss", lr.loss);
    epoch_span.arg("train_acc", acc);
    if (snapshot_metrics) {
      auto& reg = obs::registry();
      reg.set_gauge("train.loss", lr.loss);
      reg.set_gauge("train.acc", acc);
      reg.set_gauge("train.epoch", epoch);
      if (ctx.ledger != nullptr) {
        reg.set_gauge("ledger.epoch_dense_ms", ctx.ledger->dense_ms);
        reg.set_gauge("ledger.epoch_sparse_ms", ctx.ledger->sparse_ms);
        reg.set_gauge("ledger.epoch_convert_ms", ctx.ledger->convert_ms);
        reg.set_gauge("ledger.epoch_dispatch_ms", ctx.ledger->dispatch_ms());
        reg.set_gauge("ledger.epoch_total_ms", ctx.ledger->total_ms());
      }
      reg.snapshot_epoch(epoch);
    }
    if (cfg.verbose && epoch % 10 == 0) {
      std::printf("[%s/%s] epoch %3d loss %.4f test-acc %.4f scale %g\n",
                  model_name(kind), mode_name(mode), epoch, lr.loss, acc,
                  static_cast<double>(gscale));
    }
  }
  res.final_test_acc = res.test_accs.empty() ? 0.0 : res.test_accs.back();
  if (override_active && !dtype_trainable(req)) {
    // Post-training quantization: one extra eval forward under the requested
    // i8/b1 dtype. The trained f32 weights stay untouched; only the reported
    // final accuracy reflects the quantized inference path (best_test_acc
    // remains the training-time best).
    HG_TRACE_SCOPE("ptq_eval", "phase");
    SparseCtx ectx;
    ectx.stream = cfg.stream != nullptr ? cfg.stream : &simt::default_stream();
    ectx.mode = mode;
    ectx.dtype_override = req;
    MTensor elogits = model->forward(ectx, g, x);
    res.final_test_acc =
        masked_accuracy(elogits, d.labels, d.train_mask, 0, classes);
  }
  res.scaler_skipped = scaler.skipped_steps();
  res.guard_retries = guard.retries();
  res.guard_rollbacks = guard.rollbacks();
  res.guard_fallbacks = guard.fallbacks();
  res.guard_checkpoints = guard.checkpoints();
  run_span->arg("final_test_acc", res.final_test_acc);
  run_span->arg("scaler_skipped",
                static_cast<std::int64_t>(res.scaler_skipped));
  if (use_guard) {
    run_span->arg("guard_retries",
                  static_cast<std::int64_t>(res.guard_retries));
    run_span->arg("guard_rollbacks",
                  static_cast<std::int64_t>(res.guard_rollbacks));
    run_span->arg("guard_fallbacks",
                  static_cast<std::int64_t>(res.guard_fallbacks));
  }

  // Parameter + input memory.
  for (auto* p : model->params()) {
    res.memory.param_bytes += p->master_bytes();
  }
  res.memory.add_state(x.bytes());
  if (mode == SystemMode::kDglHalf) {
    // DGL retains the original float features next to the half copy.
    res.memory.add_state(x.numel() * 4);
  }
  fill_memory_model(res.memory, mode, d, cfg.hidden);
  if (obs::registry().enabled()) {
    auto& reg = obs::registry();
    reg.set_gauge("memory.graph_bytes",
                  static_cast<double>(res.memory.graph_bytes));
    reg.set_gauge("memory.state_bytes",
                  static_cast<double>(res.memory.state_bytes));
    reg.set_gauge("memory.param_bytes",
                  static_cast<double>(res.memory.param_bytes));
    reg.set_gauge("memory.workspace_bytes",
                  static_cast<double>(res.memory.workspace_bytes));
    reg.set_gauge("memory.framework_overhead",
                  static_cast<double>(res.memory.framework_overhead));
    reg.set_gauge("memory.total_bytes",
                  static_cast<double>(res.memory.total()));
  }
  return res;
}

}  // namespace hg::nn
