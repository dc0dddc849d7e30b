// Full-batch transductive training loop with mixed-precision semantics:
// float master weights + Adam (Micikevicius et al.), dynamic loss scaling,
// NaN-skip steps, per-epoch cost ledger (Fig. 7/8), and the memory meter
// (Fig. 6).
#pragma once

#include "amp/amp.hpp"
#include "nn/guard.hpp"
#include "nn/models.hpp"

namespace hg::nn {

struct TrainConfig {
  int epochs = 200;
  float lr = 0.01f;
  int hidden = 64;  // the paper's intermediate feature length
  std::uint64_t seed = 42;
  // Precision-lattice override. Unset = the historical mode-implied dtype
  // (kDglFloat -> f32, else f16), bit for bit. A trainable dtype (f32 /
  // f16 / bf16) trains end-to-end in that dtype; f16 engages the
  // GradScaler, bf16 and f32 run with the scale pinned at 1. A PTQ dtype
  // (i8 / b1) trains in f32 and applies the override at a final quantized
  // eval forward, whose accuracy becomes final_test_acc.
  std::optional<Dtype> dtype;
  // Kernel stream; nullptr = simt::default_stream(). Benches and tests use
  // this to train against a Device with its own fault configuration.
  simt::Stream* stream = nullptr;
  // Self-healing (nn/guard.hpp); false is the historical loop, bit for bit.
  bool guard = false;
  // Run epoch 0 under the SIMT cost model to obtain the per-epoch modeled
  // time (identical numerics; the model is shape-deterministic so one
  // epoch's cost represents them all).
  bool profile_first_epoch = false;
  // Observability: run EVERY epoch under the cost model and emit nested
  // run -> epoch -> phase -> kernel spans into obs::tracer() plus per-epoch
  // snapshots into obs::registry() (whichever of the two is enabled).
  // Numerics are identical either way (profiled == unprofiled bits); with
  // tracing off nothing is recorded and nothing changes.
  bool trace = false;
  bool verbose = false;
  // Durable crash-safe checkpointing (src/ckpt). Empty dir = off. Every
  // `checkpoint_every` epochs the full training state — master weights, Adam
  // moments, GradScaler, RNG, guard escalation levels + rollback ring,
  // partial results, and the metrics/trace state — is written atomically
  // under `checkpoint_dir` as a new generation. With `resume` set the newest
  // decodable generation is restored (corrupt/torn files fall back to the
  // previous good one) and the loop continues from its epoch; the finished
  // run's outputs are byte-identical to an uninterrupted run.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  bool resume = false;
};

TrainConfig default_config(ModelKind kind);

// The losses, accuracies, NaN bookkeeping, epoch ledger and memory meter
// come from ckpt::ResultState: the part of the result a checkpoint carries.
struct TrainResult : ckpt::ResultState {
  double final_test_acc = 0;
  int scaler_skipped = 0;   // optimizer steps skipped on non-finite grads
  // TrainGuard activity (all zero when cfg.guard is false).
  int guard_retries = 0;
  int guard_rollbacks = 0;
  int guard_fallbacks = 0;
  int guard_checkpoints = 0;
};

TrainResult train(ModelKind kind, SystemMode mode, const Dataset& data,
                  const TrainConfig& cfg);

}  // namespace hg::nn
