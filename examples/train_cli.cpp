// Command-line trainer: the full pipeline behind one flag-driven binary.
//
//   usage: train_cli [--dataset 1..16] [--model gcn|gat|gin]
//                    [--mode float|half|halfgnn] [--epochs N] [--lr F]
//                    [--hidden N] [--seed N] [--profile[=<analyzers>]]
//                    [--dtype f32|f16|bf16|i8|b1] [--verbose]
//                    [--guard] [--guard-retry N] [--guard-interval N]
//                    [--guard-ring N] [--guard-nan-streak N]
//                    [--guard-overflow-streak N]
//
//   e.g.   ./build/examples/train_cli --dataset 15 --model gcn
//              --mode halfgnn --epochs 60 --profile
//
//   Observability: HALFGNN_TRACE=<path> exports a Chrome trace of the run
//   on the modeled timeline; HALFGNN_METRICS=<path> dumps the metrics
//   registry; HALFGNN_FLAME=<path> writes collapsed flamegraph stacks
//   (all optional; see DESIGN.md "Observability").
//
//   hgprof: --profile=roofline,numerics (or =all) arms the device profiler
//   — equivalent to HALFGNN_PROF=<list> — and HALFGNN_PROF_OUT=<path>
//   writes its halfgnn-prof-v1 report at exit. Bare --profile keeps its
//   original meaning (cost-ledger breakdown of the first epoch).
//
//   Precision lattice: --dtype (or HALFGNN_DTYPE=<name>; the flag wins)
//   overrides the mode-implied working dtype. f32/f16/bf16 train end to end
//   in that dtype (bf16 needs no loss scaling); i8/b1 train in f32 and run
//   a post-training quantized eval forward whose accuracy is reported.
//   Unset keeps the historical mode-implied behavior bit for bit.
//
//   Chaos: HALFGNN_FAULTS=<spec> (simt/fault.hpp grammar) injects
//   deterministic faults into every kernel launch; --guard turns on the
//   TrainGuard retry/rollback/fallback machinery (DESIGN.md Sec. 9), e.g.
//     HALFGNN_FAULTS='bitflip:rate=1e-4,seed=7' ./train_cli --guard
//   HALFGNN_WATCHDOG_MS=<ms> arms the per-launch watchdog that reaps
//   stuck kernels (HALFGNN_FAULTS='stuck:...') as retryable hangs.
//
//   Checkpointing: --ckpt-dir <path> (or HALFGNN_CKPT_DIR; the flag wins)
//   writes a durable training snapshot every --ckpt-every epochs (default
//   1); --resume restores the newest good generation from the same dir and
//   finishes the run byte-identical to an uninterrupted one. A simulated
//   crash (HALFGNN_FAULTS='torncrash:epoch=N[,at=B]') exits with status 42.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "ckpt/store.hpp"
#include "graph/datasets.hpp"
#include "nn/trainer.hpp"
#include "simt/fault.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"
#include "simt/executor.hpp"
#include "util/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--dataset 1..16] [--model gcn|gat|gin]\n"
      "          [--mode float|half|halfgnn] [--epochs N] [--lr F]\n"
      "          [--hidden N] [--seed N] [--dtype f32|f16|bf16|i8|b1]\n"
      "          [--profile[=roofline|numerics|all]] [--verbose]\n"
      "          [--guard] [--guard-retry N] [--guard-interval N]\n"
      "          [--guard-ring N] [--guard-nan-streak N]\n"
      "          [--guard-overflow-streak N]\n"
      "          [--ckpt-dir PATH] [--ckpt-every N] [--resume]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hg;

  // Validate every env value the default device parses before anything
  // touches it (its constructor would throw from a static initializer): a
  // malformed value gets a one-line error, plus the grammar for faults.
  try {
    simt::Device::check_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (std::string_view(e.what()).starts_with(simt::FaultConfig::kEnv)) {
      std::fprintf(stderr, "\n%s", simt::FaultConfig::grammar_help().c_str());
    }
    return 2;
  }

  int dataset = 15;
  nn::ModelKind model = nn::ModelKind::kGcn;
  nn::SystemMode mode = nn::SystemMode::kHalfGnn;
  nn::TrainConfig cfg;
  bool have_lr = false;
  cfg.epochs = 60;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value by util::flag_value's rules for its type;
    // false (after one error line for a bad value) sends the caller to
    // usage().
    const auto number = [&](auto& out) {
      const char* v = next();
      if (v == nullptr) return false;
      using T = std::remove_reference_t<decltype(out)>;
      if (const std::optional<T> got = util::flag_value<T>(v)) {
        out = *got;
        return true;
      }
      std::fprintf(stderr, "error: %s: invalid value '%s'\n", a.c_str(), v);
      return false;
    };
    // A --model / --mode value: the row of `flags` it spells, or nullptr.
    const auto word = [&](const auto& flags) {
      const char* v = next();
      return v == nullptr ? nullptr : util::find(flags, v);
    };
    if (a == "--dataset") {
      if (!number(dataset)) return usage(argv[0]);
    } else if (a == "--model") {
      const auto* m = word(nn::kModelFlags);
      if (m == nullptr) return usage(argv[0]);
      model = m->value;
    } else if (a == "--mode") {
      const auto* m = word(nn::kModeFlags);
      if (m == nullptr) return usage(argv[0]);
      mode = m->value;
    } else if (a == "--epochs") {
      if (!number(cfg.epochs)) return usage(argv[0]);
    } else if (a == "--lr") {
      if (!number(cfg.lr)) return usage(argv[0]);
      have_lr = true;
    } else if (a == "--hidden") {
      if (!number(cfg.hidden)) return usage(argv[0]);
    } else if (a == "--seed") {
      if (!number(cfg.seed)) return usage(argv[0]);
    } else if (a == "--dtype") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.dtype = dtype_from_name(v);
      if (!cfg.dtype.has_value()) {
        std::fprintf(stderr, "error: unknown dtype '%s'\n", v);
        return usage(argv[0]);
      }
    } else if (a == "--guard") {
      cfg.guard.enabled = true;
    } else if (a == "--guard-retry") {
      if (!number(cfg.guard.retry_budget)) return usage(argv[0]);
    } else if (a == "--guard-interval") {
      if (!number(cfg.guard.checkpoint_interval)) return usage(argv[0]);
    } else if (a == "--guard-ring") {
      if (!number(cfg.guard.checkpoint_ring)) return usage(argv[0]);
    } else if (a == "--guard-nan-streak") {
      if (!number(cfg.guard.nan_streak)) return usage(argv[0]);
    } else if (a == "--guard-overflow-streak") {
      if (!number(cfg.guard.overflow_streak)) return usage(argv[0]);
    } else if (a == "--profile") {
      cfg.profile_first_epoch = true;
    } else if (a.rfind("--profile=", 0) == 0) {
      // --profile=<analyzers> arms hgprof on top of the ledger breakdown,
      // same grammar as HALFGNN_PROF.
      cfg.profile_first_epoch = true;
      try {
        simt::default_device().set_profiler(
            obs::prof::ProfConfig::parse(a.substr(std::strlen("--profile="))));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage(argv[0]);
      }
    } else if (a == "--ckpt-dir") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      cfg.checkpoint_dir = v;
    } else if (a == "--ckpt-every") {
      if (!number(cfg.checkpoint_every)) return usage(argv[0]);
      if (cfg.checkpoint_every < 1) {
        std::fprintf(stderr, "error: --ckpt-every must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (a == "--resume") {
      cfg.resume = true;
    } else if (a == "--verbose") {
      cfg.verbose = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      return usage(argv[0]);
    }
  }
  if (dataset < 1 || dataset > kNumDatasets || cfg.epochs < 1 ||
      cfg.hidden < 8) {
    return usage(argv[0]);
  }
  if (!have_lr) cfg.lr = nn::default_config(model).lr;
  if (!cfg.dtype.has_value()) {
    if (const char* env = std::getenv("HALFGNN_DTYPE");
        env != nullptr && *env) {
      cfg.dtype = dtype_from_name(env);
      if (!cfg.dtype.has_value()) {
        std::fprintf(stderr, "error: HALFGNN_DTYPE has unknown dtype '%s'\n",
                     env);
        return usage(argv[0]);
      }
    }
  }

  if (cfg.checkpoint_dir.empty()) {
    if (const char* env = std::getenv("HALFGNN_CKPT_DIR");
        env != nullptr && *env) {
      cfg.checkpoint_dir = env;
    }
  }
  if (cfg.resume && cfg.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "error: --resume needs --ckpt-dir (or HALFGNN_CKPT_DIR)\n");
    return usage(argv[0]);
  }
  if (!cfg.checkpoint_dir.empty()) {
    // Notices go to stderr: stdout must stay byte-identical between an
    // uninterrupted run and a crash + --resume pair.
    std::fprintf(stderr, "checkpointing to '%s' every %d epoch(s)%s\n",
                 cfg.checkpoint_dir.c_str(), cfg.checkpoint_every,
                 cfg.resume ? ", resuming" : "");
  }

  const obs::EnvConfig obs_cfg = obs::init_from_env();
  if (!obs_cfg.trace_path.empty()) cfg.trace = true;

  Dataset d = make_dataset(static_cast<DatasetId>(dataset));
  ensure_features(d);
  std::printf("training %s / %s on %s (|V|=%d |E|=%ld), %d epochs, lr %g\n",
              nn::model_name(model), nn::mode_name(mode), d.name.c_str(),
              d.num_vertices(), static_cast<long>(d.num_edges()), cfg.epochs,
              static_cast<double>(cfg.lr));
  if (cfg.dtype.has_value()) {
    std::printf("precision override : dtype=%s%s\n",
                std::string(dtype_name(*cfg.dtype)).c_str(),
                dtype_trainable(*cfg.dtype)
                    ? ""
                    : " (trains f32, quantized eval forward)");
  }

  nn::TrainResult res;
  try {
    res = nn::train(model, mode, d, cfg);
  } catch (const ckpt::SimulatedCrash& e) {
    // HALFGNN_FAULTS=torncrash killed the process mid-checkpoint; the
    // distinctive status lets harnesses assert the crash actually fired.
    std::fprintf(stderr, "%s\n", e.what());
    return 42;
  } catch (const std::invalid_argument& e) {
    // A configuration the run cannot take (a feature width some dispatched
    // kernel rejects, a checkpoint of another run): rejected before epoch 0.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("\nbest test accuracy : %.2f%%\n", 100 * res.best_test_acc);
  std::printf("final loss         : %.4f\n", res.losses.back());
  std::printf("NaN-loss epochs    : %d (scaler skipped %d steps)\n",
              res.nan_loss_epochs, res.scaler_skipped);
  std::printf("memory (modeled)   : %.1f MB\n",
              static_cast<double>(res.memory.total()) / (1024 * 1024));
  if (cfg.guard.enabled) {
    std::printf(
        "guard              : %d retries, %d rollbacks, %d fallbacks "
        "(%d checkpoints)\n",
        res.guard_retries, res.guard_rollbacks, res.guard_fallbacks,
        res.guard_checkpoints);
  }
  if (cfg.profile_first_epoch) {
    std::printf(
        "epoch time (modeled): %.3f ms = sparse %.3f + dense %.3f + "
        "conversions %.3f + dispatch %.3f\n",
        res.epoch_ledger.total_ms(), res.epoch_ledger.sparse_ms,
        res.epoch_ledger.dense_ms, res.epoch_ledger.convert_ms,
        res.epoch_ledger.dispatch_ms());
  }
  const obs::WriteStatus obs_st = obs::write_configured_outputs(obs_cfg);
  if (!obs_cfg.trace_path.empty()) {
    if (obs_st.trace_ok) {
      std::printf("trace written       : %s (chrome://tracing)\n",
                  obs_cfg.trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write trace to %s\n",
                   obs_cfg.trace_path.c_str());
    }
  }
  if (!obs_cfg.metrics_path.empty()) {
    if (obs_st.metrics_ok) {
      std::printf("metrics written     : %s\n", obs_cfg.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write metrics to %s\n",
                   obs_cfg.metrics_path.c_str());
    }
  }
  bool prof_ok = true;
  const obs::prof::Profiler& prof = simt::default_device().profiler();
  if (prof.active()) {
    std::printf("hgprof              : %llu launches profiled\n",
                static_cast<unsigned long long>(prof.launches_seen()));
    if (const char* out = std::getenv("HALFGNN_PROF_OUT");
        out != nullptr && *out) {
      prof_ok = prof.write_report(out);
      if (prof_ok) {
        std::printf("prof report written : %s\n", out);
      } else {
        std::fprintf(stderr, "error: could not write prof report to %s\n",
                     out);
      }
    }
  }
  return (obs_st.trace_ok && obs_st.metrics_ok && obs_st.flame_ok && prof_ok)
             ? 0
             : 1;
}
