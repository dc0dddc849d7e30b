// trace_viewer_demo: train one GCN under the cost model with the full
// observability stack on, then export both artifacts:
//
//   trace.json    — Chrome trace-event JSON on the modeled SIMT timeline
//                   (open chrome://tracing or https://ui.perfetto.dev and
//                   load the file; spans nest run > epoch > phase > layer >
//                   kernel, dispatch decisions appear as instant markers)
//   metrics.json  — halfgnn-metrics-v1 registry dump: counters, gauges,
//                   per-kernel NCU-style sums, per-epoch snapshots
//
// Usage: trace_viewer_demo [mode] [epochs]
//   mode: halfgnn (default) | dgl-float | dgl-half
#include <cstdio>
#include <optional>
#include <string>

#include "graph/datasets.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  using namespace hg;

  constexpr util::Token<nn::SystemMode> kModes[] = {
      {"halfgnn", nn::SystemMode::kHalfGnn},
      {"dgl-float", nn::SystemMode::kDglFloat},
      {"dgl-half", nn::SystemMode::kDglHalf}};
  const auto* mode = util::find(kModes, argc > 1 ? argv[1] : "halfgnn");
  const std::optional<int> epochs =
      argc > 2 ? util::to_int<int>(argv[2], 1) : 20;
  if (mode == nullptr || !epochs) {
    std::fprintf(stderr, "usage: %s [%s] [epochs]\n", argv[0],
                 util::alternatives(kModes).c_str());
    return 2;
  }

  obs::tracer().reset();
  obs::tracer().set_enabled(true);
  obs::registry().reset();
  obs::registry().set_enabled(true);

  Dataset d = make_dataset(DatasetId::kCora);
  nn::TrainConfig cfg = nn::default_config(nn::ModelKind::kGcn);
  cfg.epochs = *epochs;
  cfg.trace = true;  // every epoch runs under the cost model
  cfg.profile_first_epoch = true;

  const nn::TrainResult res =
      nn::train(nn::ModelKind::kGcn, mode->value, d, cfg);

  const bool t_ok = obs::tracer().write_chrome_trace("trace.json");
  const bool m_ok = obs::registry().write_json("metrics.json");
  if (!t_ok || !m_ok) {
    std::fprintf(stderr, "trace_viewer_demo: failed to write output files\n");
    return 1;
  }

  std::printf("trained GCN/%s on %s for %d epochs: final test acc %.4f\n",
              nn::mode_name(mode->value), d.name.c_str(), *epochs,
              res.final_test_acc);
  std::printf("modeled timeline: %.3f ms, %zu trace events\n",
              obs::tracer().now_ms(), obs::tracer().event_count());
  std::printf("wrote trace.json    — load it in chrome://tracing or "
              "ui.perfetto.dev\n");
  std::printf("wrote metrics.json  — per-kernel counters + per-epoch "
              "snapshots\n");
  return 0;
}
