// bench_chaos: end-to-end resilience sweep of self-healing training.
//
// Trains HalfGNN-mode models on G1:Cora against a fault-injecting Device
// across a grid of soft-error (bit-flip) rates, with the TrainGuard off and
// on, and reports accuracy plus guard activity per cell. The headline
// property (validated here, non-zero exit if it fails): at a flip rate
// where the unguarded run collapses to NaN, the guarded run finishes within
// 2 accuracy points of the clean baseline — the retry / rollback / fallback
// machinery turns a fatal fault load into a recoverable one.
//
// Writes BENCH_chaos.json (halfgnn-bench-v1) and re-validates the file.
// Quick mode (HALFGNN_QUICK=1) sweeps GCN only with fewer epochs.
//
// Usage: bench_chaos [output.json]   (default: BENCH_chaos.json in cwd)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "nn/trainer.hpp"
#include "obs/report.hpp"
#include "simt/fault.hpp"
#include "util/table.hpp"

namespace hg::bench {
namespace {

constexpr const char* kBench = "bench_chaos";

struct Cell {
  std::string id;
  double rate = 0.0;
  bool guard = false;
  nn::TrainResult res;
  std::uint64_t bitflips = 0;
};

Cell run_cell(nn::ModelKind kind, const Dataset& d, double rate, bool guard,
              int epochs) {
  simt::Device dev(simt::a100_spec());  // HALFGNN_THREADS-sized pool
  if (rate > 0) {
    dev.set_faults(simt::FaultConfig::parse(
        "bitflip:rate=" + std::to_string(rate) + ",seed=7"));
  }
  simt::Stream stream(dev);

  nn::TrainConfig cfg = nn::default_config(kind);
  cfg.epochs = epochs;
  cfg.stream = &stream;
  cfg.guard = guard;

  Cell c;
  c.rate = rate;
  c.guard = guard;
  c.id = std::string(nn::model_name(kind)) + " rate=" +
         (rate > 0 ? std::to_string(rate) : std::string("0")) +
         " guard=" + (guard ? "on" : "off");
  c.res = nn::train(kind, nn::SystemMode::kHalfGnn, d, cfg);
  c.bitflips = dev.faults().total_bitflips();
  return c;
}

int run(const std::string& path) {
  Dataset d = make_dataset(DatasetId::kCora);
  ensure_features(d);
  const int epochs = epochs_override(quick_mode() ? 30 : 60);

  std::vector<nn::ModelKind> kinds{nn::ModelKind::kGcn};
  if (!quick_mode()) {
    kinds.push_back(nn::ModelKind::kGat);
    kinds.push_back(nn::ModelKind::kGin);
  }
  const std::vector<double> rates{0.0, 1e-6, 1e-5, 1e-4, 1e-3};

  obs::PerfReport r("chaos");
  r.meta("dataset", short_name(d));
  r.meta("vertices", static_cast<std::int64_t>(d.num_vertices()));
  r.meta("edges", static_cast<std::int64_t>(d.num_edges()));
  r.meta("epochs", static_cast<std::int64_t>(epochs));
  r.meta("fault_seed", static_cast<std::int64_t>(7));
  if (quick_mode()) r.meta("quick", true);
  r.set_columns({"rate", "guard", "best_acc", "final_acc", "nan_epochs",
                 "first_nan", "retries", "rollbacks", "fallbacks",
                 "bitflips"});

  Table table({"run", "best_acc", "final_acc", "nan_ep", "first_nan",
               "retry", "rollbk", "fallbk", "flips"});
  std::vector<Cell> cells;
  for (const auto kind : kinds) {
    for (const double rate : rates) {
      for (const bool guard : {false, true}) {
        if (rate == 0.0 && guard) continue;  // clean baseline needs no guard
        Cell c = run_cell(kind, d, rate, guard, epochs);
        r.add_row(c.id,
                  {c.rate, c.guard ? 1.0 : 0.0, c.res.best_test_acc,
                   c.res.final_test_acc,
                   static_cast<double>(c.res.nan_loss_epochs),
                   static_cast<double>(c.res.first_nan_epoch),
                   static_cast<double>(c.res.guard_retries),
                   static_cast<double>(c.res.guard_rollbacks),
                   static_cast<double>(c.res.guard_fallbacks),
                   static_cast<double>(c.bitflips)});
        table.row({c.id, fmt(c.res.best_test_acc), fmt(c.res.final_test_acc),
                   std::to_string(c.res.nan_loss_epochs),
                   std::to_string(c.res.first_nan_epoch),
                   std::to_string(c.res.guard_retries),
                   std::to_string(c.res.guard_rollbacks),
                   std::to_string(c.res.guard_fallbacks),
                   std::to_string(c.bitflips)});
        cells.push_back(std::move(c));
      }
    }
  }
  table.print();

  // The headline self-healing property on GCN: find a rate where the
  // unguarded run collapses (NaN epochs) and compare its guarded twin to
  // the clean baseline.
  double clean_best = 0.0;
  for (const Cell& c : cells) {
    if (c.id.rfind("GCN", 0) == 0 && c.rate == 0.0) {
      clean_best = c.res.best_test_acc;
    }
  }
  if (clean_best <= 0.0) return fail(kBench, "no clean GCN baseline row");
  // A rate "collapses" the unguarded run when it both goes NaN and loses
  // more than 10 accuracy points; compare the guarded twin of the worst
  // such collapse against the clean baseline.
  double recovered_best = -1.0;
  double collapse_rate = 0.0;
  double worst_off = 2.0;
  for (const Cell& off : cells) {
    if (off.id.rfind("GCN", 0) != 0 || off.guard || off.rate == 0.0 ||
        off.res.nan_loss_epochs == 0 ||
        off.res.best_test_acc >= clean_best - 0.1 ||
        off.res.best_test_acc >= worst_off) {
      continue;
    }
    for (const Cell& on : cells) {
      if (on.id.rfind("GCN", 0) == 0 && on.guard && on.rate == off.rate) {
        worst_off = off.res.best_test_acc;
        recovered_best = on.res.best_test_acc;
        collapse_rate = on.rate;
      }
    }
  }
  if (recovered_best < 0.0) {
    return fail(kBench, "no swept flip rate collapses the unguarded GCN run");
  }
  r.summary("gcn_clean_best_acc", clean_best);
  r.summary("gcn_guarded_best_acc_at_collapse_rate", recovered_best);
  r.summary("gcn_collapse_rate", collapse_rate);
  if (recovered_best < clean_best - 0.02) {
    return fail(kBench,
                "guarded GCN not within 2 points of clean at rate=" +
                    std::to_string(collapse_rate) + " (" +
                    std::to_string(recovered_best) + " vs clean " +
                    std::to_string(clean_best) + ")");
  }

  if (const int rc = write_and_validate(kBench, r, path)) return rc;

  std::printf(
      "bench_chaos: OK — guarded GCN %.4f vs clean %.4f at rate %g; "
      "wrote %s\n",
      recovered_best, clean_best, collapse_rate, path.c_str());
  return 0;
}

}  // namespace
}  // namespace hg::bench

int main(int argc, char** argv) {
  return hg::bench::run(argc > 1 ? argv[1] : "BENCH_chaos.json");
}
