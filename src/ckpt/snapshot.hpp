// The single snapshot struct behind both recovery mechanisms: TrainGuard's
// in-memory rollback ring and the durable on-disk Store (store.hpp) carry
// the same ckpt::ModelState / ckpt::TrainState, archived through the same
// field lists (serial.hpp) — one format, not two.
//
// TrainState captures everything the training loop needs to continue
// bit-exactly from the top of an epoch: master weights + Adam moments +
// step counters, the full GradScaler trajectory, the trainer's RNG, the
// guard's escalation levels and rollback ring, the partial TrainResult,
// and (opaque, via obs save_state) the metrics registry and span tracer —
// so a resumed run's outputs, metrics JSON and trace JSON are byte-
// identical to the uninterrupted run at every HALFGNN_THREADS and on both
// HALFGNN_SIMD paths.
//
// Each piece is its owner's own type: the trajectory is amp's, the RNG
// state util's, the ledger and memory meter tensor's. ckpt depends on
// those libraries, never the reverse; the guard state and the partial
// result are defined here because their owners (nn::TrainGuard,
// nn::TrainResult) live above ckpt and embed them.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "amp/amp.hpp"
#include "tensor/ledger.hpp"
#include "util/rng.hpp"

namespace hg::ckpt {

// On-disk payload format version; bumped on any incompatible layout change.
inline constexpr std::uint32_t kFormatVersion = 1;

// One model snapshot: flat float copies of each Param's master / m / v
// tensors plus the counters a rollback must restore. This is what
// TrainGuard keeps `checkpoint_ring` of in memory.
struct ModelState {
  int epoch = 0;
  int adam_t = 0;
  float scale = 1.0f;  // GradScaler scale at snapshot time
  std::vector<std::vector<float>> master, m, v;

  template <class Ar>
  void fields(Ar& ar) {
    ar(epoch, adam_t, scale, master, m, v);
  }
};

// nn::TrainGuard's whole state; the guard keeps it in this one struct.
struct GuardState {
  struct Site {
    int level = 0;   // fallback-chain level (0 = the mode's native kernel)
    int streak = 0;  // consecutive non-finite outputs
    template <class Ar>
    void fields(Ar& ar) {
      ar(level, streak);
    }
  };
  std::map<std::string, Site> sites;
  std::deque<ModelState> ring;  // rollback snapshots, oldest first
  int nan_streak = 0;
  bool last_loss_finite = true;
  int retries = 0;
  int rollbacks = 0;
  int fallbacks = 0;
  int checkpoints = 0;

  template <class Ar>
  void fields(Ar& ar) {
    ar(sites, ring, nan_streak, last_loss_finite, retries, rollbacks,
       fallbacks, checkpoints);
  }
};

// The part of nn::TrainResult (which extends this struct) accumulated
// before the snapshot epoch. The meter and ledger are measured on epoch 0
// only, so a resume from a later epoch must carry them or it would report
// zeros.
struct ResultState {
  std::vector<double> losses;  // per-epoch train loss (NaN stays NaN)
  std::vector<double> test_accs;
  double best_test_acc = 0;
  int nan_loss_epochs = 0;   // epochs whose loss was NaN (Fig. 1c mechanism)
  int first_nan_epoch = -1;  // epoch index of the first NaN loss; -1 = none
  MemoryMeter memory;
  CostLedger epoch_ledger;  // one epoch's modeled cost, if profiled

  template <class Ar>
  void fields(Ar& ar) {
    ar(losses, test_accs, best_test_acc, nan_loss_epochs, first_nan_epoch,
       memory, epoch_ledger);
  }
};

struct TrainState {
  // Config identity (model/mode/dataset/epochs/lr/hidden/seed/dtype); a
  // resume against a different configuration is rejected, not silently
  // continued.
  std::string fingerprint;
  int epoch = 0;  // the epoch about to run when the snapshot was taken
  ModelState model;
  amp::GradScaler::Trajectory scaler;
  Rng::State rng;
  GuardState guard;
  ResultState result;
  // Opaque obs blobs (Registry::save_state / Tracer::save_state); empty
  // when the corresponding sink was disabled.
  std::string registry_blob;
  std::string tracer_blob;

  template <class Ar>
  void fields(Ar& ar) {
    ar(fingerprint, epoch, model, scaler, rng, guard, result, registry_blob,
       tracer_blob);
  }
};

}  // namespace hg::ckpt
