// bench_crash: crash-resume durability sweep of the checkpoint subsystem.
//
// Trains a HalfGNN-mode GCN on G1:Cora with per-epoch checkpointing, kills
// the run mid-training through the deterministic torncrash fault (both a
// clean kill after a committed generation and a torn write truncated at 64
// bytes), then resumes from disk and compares the resumed trajectory
// bit-for-bit against one uninterrupted reference run. A final row stalls
// the spmm kernel (stuck fault) under a 25 ms launch watchdog and checks
// the TrainGuard ladder retries the reaped launch to completion.
//
// The headline properties (validated here, non-zero exit if any fails):
//   * every resumed run is byte-identical to the reference (divergent == 0),
//   * a torn newest generation is rejected and recovery falls back to the
//     previous good one (rejected >= 1),
//   * a stuck kernel is reaped by the watchdog and training still finishes
//     with no NaN epochs (stucks > 0, retries > 0).
//
// The `divergent` column is the perf-gated metric: its committed baseline
// is 0, so any nonzero value trips the perf_diff tolerance gate.
//
// Writes BENCH_crash.json (halfgnn-bench-v1) and re-validates the file.
// Checkpoint directories are derived from the output path and wiped per
// cell. Quick mode (HALFGNN_QUICK=1) shortens the run via epochs_override.
//
// Usage: bench_crash [output.json]   (default: BENCH_crash.json in cwd)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "ckpt/store.hpp"
#include "nn/trainer.hpp"
#include "obs/report.hpp"
#include "simt/fault.hpp"
#include "util/table.hpp"

namespace hg::bench {
namespace {

constexpr const char* kBench = "bench_crash";

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

// Number of positions where the resumed trajectory differs bitwise from
// the reference; 0 means byte-identical resume.
int divergence(const nn::TrainResult& got, const nn::TrainResult& ref) {
  int n = 0;
  if (got.losses.size() != ref.losses.size() ||
      got.test_accs.size() != ref.test_accs.size()) {
    return 1 + static_cast<int>(ref.losses.size() + ref.test_accs.size());
  }
  for (std::size_t i = 0; i < ref.losses.size(); ++i) {
    if (!bits_equal(got.losses[i], ref.losses[i])) ++n;
  }
  for (std::size_t i = 0; i < ref.test_accs.size(); ++i) {
    if (!bits_equal(got.test_accs[i], ref.test_accs[i])) ++n;
  }
  if (!bits_equal(got.final_test_acc, ref.final_test_acc)) ++n;
  if (!bits_equal(got.best_test_acc, ref.best_test_acc)) ++n;
  if (got.scaler_skipped != ref.scaler_skipped) ++n;
  return n;
}

struct Cell {
  std::string id;
  int kill_epoch = -1;
  std::int64_t torn_at = -1;  // -1: clean kill after a committed write
  bool crashed = false;
  int generation = -1;  // generation the resume recovered from
  int rejected = 0;     // torn/corrupted generations skipped on load
  int divergent = 0;
  std::uint64_t retries = 0;
  std::uint64_t stucks = 0;
};

nn::TrainResult run_train(const Dataset& d, nn::TrainConfig cfg,
                          const std::string& faults, bool* crashed) {
  simt::Device dev(simt::a100_spec());  // HALFGNN_THREADS-sized pool
  if (!faults.empty()) dev.set_faults(simt::FaultConfig::parse(faults));
  simt::Stream stream(dev);
  cfg.stream = &stream;
  nn::TrainResult res;
  try {
    res = nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);
    if (crashed != nullptr) *crashed = false;
  } catch (const ckpt::SimulatedCrash&) {
    if (crashed != nullptr) *crashed = true;
  }
  return res;
}

Cell run_crash_cell(const Dataset& d, const nn::TrainConfig& base,
                    const nn::TrainResult& ref, const std::string& dir,
                    int kill_epoch, std::int64_t torn_at) {
  Cell c;
  c.kill_epoch = kill_epoch;
  c.torn_at = torn_at;
  c.id = "kill=" + std::to_string(kill_epoch) + " torn=" +
         (torn_at >= 0 ? std::to_string(torn_at) + "B" : std::string("clean"));

  std::filesystem::remove_all(dir);
  std::string faults = "torncrash:epoch=" + std::to_string(kill_epoch);
  if (torn_at >= 0) faults += ",at=" + std::to_string(torn_at);

  nn::TrainConfig cfg = base;
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 1;
  run_train(d, cfg, faults, &c.crashed);

  {  // What would a restart see on disk?
    ckpt::StoreConfig scfg;
    scfg.dir = dir;
    ckpt::LoadInfo info = ckpt::Store(scfg).load();
    if (info.found) c.generation = info.generation;
    c.rejected = info.rejected;
  }

  cfg.resume = true;
  bool crashed_again = true;
  nn::TrainResult res = run_train(d, cfg, "", &crashed_again);
  c.divergent = crashed_again ? 1 : divergence(res, ref);
  std::filesystem::remove_all(dir);
  return c;
}

Cell run_watchdog_cell(const Dataset& d, const nn::TrainConfig& base) {
  Cell c;
  c.id = "stuck spmm + watchdog";
  simt::Device dev(simt::a100_spec());
  dev.set_faults(simt::FaultConfig::parse("stuck:every=15,kernel=spmm"));
  dev.set_watchdog_ms(25);
  simt::Stream stream(dev);
  nn::TrainConfig cfg = base;
  cfg.stream = &stream;
  cfg.guard = true;
  nn::TrainResult res =
      nn::train(nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, d, cfg);
  c.retries = static_cast<std::uint64_t>(res.guard_retries);
  c.stucks = dev.faults().total_stucks();
  c.divergent = res.nan_loss_epochs == 0 &&
                        res.losses.size() == static_cast<std::size_t>(cfg.epochs)
                    ? 0
                    : 1;
  return c;
}

int run(const std::string& path) {
  // The cells' checkpoint directories sit next to the report, and the
  // checkpoint store creates missing parents: check the report's directory
  // before any cell can create it.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty() && !std::filesystem::is_directory(parent)) {
    return fail(kBench, "cannot write " + path);
  }
  Dataset d = make_dataset(DatasetId::kCora);
  ensure_features(d);
  const int epochs = epochs_override(quick_mode() ? 8 : 12);

  nn::TrainConfig base = nn::default_config(nn::ModelKind::kGcn);
  base.epochs = epochs;

  // One uninterrupted reference run: every resumed trajectory must
  // reproduce it bit-for-bit.
  nn::TrainResult ref = run_train(d, base, "", nullptr);
  if (ref.losses.size() != static_cast<std::size_t>(epochs)) {
    return fail(kBench, "reference run did not complete");
  }

  obs::PerfReport r("crash");
  r.meta("dataset", short_name(d));
  r.meta("vertices", static_cast<std::int64_t>(d.num_vertices()));
  r.meta("edges", static_cast<std::int64_t>(d.num_edges()));
  r.meta("epochs", static_cast<std::int64_t>(epochs));
  if (quick_mode()) r.meta("quick", true);
  r.set_columns({"kill_epoch", "torn_at", "crashed", "generation", "rejected",
                 "divergent", "retries", "stucks"});

  Table table({"run", "kill", "torn", "crash", "gen", "rej", "diverge",
               "retry", "stuck"});
  std::vector<Cell> cells;
  const std::vector<int> kill_epochs{2, 4};
  int torn_cell_rejections = 0;
  for (const int kill : kill_epochs) {
    for (const std::int64_t torn_at : {std::int64_t{-1}, std::int64_t{64}}) {
      const std::string dir = path + ".ckpt-k" + std::to_string(kill) +
                              (torn_at >= 0 ? "-t" + std::to_string(torn_at)
                                            : "-clean");
      Cell c = run_crash_cell(d, base, ref, dir, kill, torn_at);
      if (!c.crashed) return fail(kBench, c.id + ": torncrash never fired");
      if (c.generation < 0) {
        return fail(kBench, c.id + ": no recoverable generation");
      }
      if (torn_at >= 0) torn_cell_rejections += c.rejected;
      cells.push_back(std::move(c));
    }
  }
  cells.push_back(run_watchdog_cell(d, base));

  for (const Cell& c : cells) {
    r.add_row(c.id,
              {static_cast<double>(c.kill_epoch),
               static_cast<double>(c.torn_at), c.crashed ? 1.0 : 0.0,
               static_cast<double>(c.generation),
               static_cast<double>(c.rejected),
               static_cast<double>(c.divergent),
               static_cast<double>(c.retries), static_cast<double>(c.stucks)});
    table.row({c.id, std::to_string(c.kill_epoch), std::to_string(c.torn_at),
               c.crashed ? "y" : "n", std::to_string(c.generation),
               std::to_string(c.rejected), std::to_string(c.divergent),
               std::to_string(c.retries), std::to_string(c.stucks)});
  }
  table.print();

  int total_divergent = 0;
  for (const Cell& c : cells) total_divergent += c.divergent;
  const Cell& wd = cells.back();
  r.summary("divergent_total", static_cast<double>(total_divergent));
  r.summary("torn_rejections", static_cast<double>(torn_cell_rejections));
  r.summary("watchdog_retries", static_cast<double>(wd.retries));
  r.summary("watchdog_stucks", static_cast<double>(wd.stucks));

  if (total_divergent != 0) {
    return fail(kBench,
                "resume diverged from the uninterrupted reference (" +
                    std::to_string(total_divergent) + " mismatches)");
  }
  if (torn_cell_rejections == 0) {
    return fail(kBench, "torn generations were never rejected on load");
  }
  if (wd.stucks == 0 || wd.retries == 0) {
    return fail(kBench, "watchdog cell: stucks=" +
                            std::to_string(wd.stucks) + " retries=" +
                            std::to_string(wd.retries) +
                            " (expected both > 0)");
  }

  if (const int rc = write_and_validate(kBench, r, path)) return rc;

  std::printf(
      "bench_crash: OK — %zu cells, 0 divergent, %d torn rejections, "
      "watchdog retries=%llu; wrote %s\n",
      cells.size(), torn_cell_rejections,
      static_cast<unsigned long long>(wd.retries), path.c_str());
  return 0;
}

}  // namespace
}  // namespace hg::bench

int main(int argc, char** argv) {
  return hg::bench::run(argc > 1 ? argv[1] : "BENCH_crash.json");
}
