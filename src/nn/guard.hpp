// TrainGuard: self-healing training on top of the fault-injectable
// substrate (simt/fault.hpp). Three independent recovery mechanisms, each
// recorded in the metrics registry and reported in TrainResult:
//
//   retry    — a sparse op that dies with simt::LaunchFault is re-issued up
//              to `kRetryBudget` attempts per call (the injector's launch
//              ordinal advances on every attempt, so a transient failure
//              clears; `guard.retries`).
//   rollback — every `kCheckpointInterval` epochs (loss permitting) the
//              guard snapshots master weights + Adam moments + step count +
//              the GradScaler scale into a ring of `kCheckpointRing`
//              entries; after `kNanStreak` consecutive NaN-loss epochs it
//              restores the newest snapshot and backs the scale off, instead
//              of training on from polluted state (`guard.rollbacks`).
//   fallback — a kernel site whose output is non-finite `kOverflowStreak`
//              times in a row is escalated one level down its dispatch
//              fallback chain (e.g. spmm_halfgnn -> spmm_cusparse_f16 ->
//              fp64 host reference, which executes outside the simulated
//              substrate and therefore outside the fault domain); the site
//              stays degraded for the rest of the run (`guard.fallbacks`).
//
// The guard holds no locks: training is single-threaded at this level (the
// executor parallelism lives below the launch API).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "amp/amp.hpp"
#include "ckpt/snapshot.hpp"
#include "nn/param.hpp"
#include "obs/prof/prof.hpp"

namespace hg::nn {

// One model snapshot (the shared ckpt::ModelState): flat float copies of
// each Param's master / m / v plus the counters a restore needs. The same
// struct backs the guard's in-memory ring and the durable Store.
ckpt::ModelState capture_model_state(int epoch, int adam_t, float scale,
                                     const std::vector<Param*>& params);
// Throws std::invalid_argument naming `what` and the first mismatch unless
// `st` holds one master, m and v vector per param, each of that param's
// length. A decoded checkpoint's vectors are bounded by its payload, not by
// the model it is restored into.
void check_model_state(const ckpt::ModelState& st,
                       const std::vector<Param*>& params,
                       const std::string& what);
// Copies the snapshot back into the params (gradients zeroed, working
// half/bf16 copies invalidated) after check_model_state; a mismatch throws
// before any param changes. Counters are returned to the caller via the
// struct, not applied here.
void restore_model_state(const ckpt::ModelState& st,
                         const std::vector<Param*>& params);

class TrainGuard {
 public:
  // The recovery policy, fixed like the GradScaler's.
  static constexpr int kRetryBudget = 4;         // launch attempts per call
  static constexpr int kCheckpointInterval = 5;  // epochs between snapshots
  static constexpr int kCheckpointRing = 2;      // snapshots kept
  static constexpr int kNanStreak = 2;           // NaN-loss epochs to roll back
  static constexpr int kOverflowStreak = 3;      // NaN/Inf outputs to escalate
  // Extra GradScaler backoff applied on rollback: the restored scale was
  // itself a pre-collapse value, so resuming with it verbatim often re-trips
  // the same overflow.
  static constexpr float kRollbackScaleBackoff = 0.5f;

  // Optional hgprof hookup: every retry/fallback/rollback decision emits an
  // audit record naming the signal that triggered it (no-op when the
  // profiler's numerics analyzer is off). The profiler must outlive the
  // guard's use of it; pass nullptr to detach.
  void set_profiler(obs::prof::Profiler* prof) noexcept { prof_ = prof; }

  // --- LaunchFault retry ----------------------------------------------------
  void count_retry(const std::string& site);

  // --- kernel fallback chain ------------------------------------------------
  // Current chain level of `site` (0 = the mode's native kernel).
  int level(const std::string& site) const;
  // Feed one op output's health; after kOverflowStreak consecutive
  // non-finite outputs the site escalates one level (capped at
  // chain_len - 1) and the streak restarts. `next_kernel` names the kernel
  // the site's dispatch chain resolves to after escalation (from the
  // kernel table, nn/kernel_table.hpp) so the hgprof audit record names the
  // kernel actually dispatched, not a hardcoded chain description.
  void observe_output(const std::string& site, bool nonfinite, int chain_len,
                      const std::string& next_kernel = {});

  // --- checkpoint ring / rollback -------------------------------------------
  // Snapshots when `epoch` is a checkpoint epoch and the previous loss was
  // finite (a NaN-epoch state is not worth preserving).
  void maybe_checkpoint(int epoch, const std::vector<Param*>& params,
                        const amp::GradScaler& scaler, int adam_t);
  // Feed the epoch loss; returns true when the NaN streak reached the
  // rollback trigger and a checkpoint is available to restore.
  bool note_loss(double loss);
  // Restores the newest checkpoint into params / scaler / adam_t (the
  // snapshot is retained, so repeated collapses restore the same state).
  void rollback(const std::vector<Param*>& params, amp::GradScaler& scaler,
                int& adam_t);

  int retries() const noexcept { return st_.retries; }
  int rollbacks() const noexcept { return st_.rollbacks; }
  int fallbacks() const noexcept { return st_.fallbacks; }
  int checkpoints() const noexcept { return st_.checkpoints; }

  // --- durable checkpoint interop -------------------------------------------
  // The guard's whole state (site escalation levels, rollback ring, NaN
  // streak, decision counters) is one ckpt::GuardState; restoring it
  // replaces everything, so a resumed run's guard decisions replay
  // identically.
  const ckpt::GuardState& state() const noexcept { return st_; }
  void restore(ckpt::GuardState st) { st_ = std::move(st); }

 private:
  obs::prof::Profiler* prof_ = nullptr;
  // The rollback ring holds the same ckpt::ModelState the durable Store
  // archives (one snapshot struct, not two).
  ckpt::GuardState st_;
};

}  // namespace hg::nn
