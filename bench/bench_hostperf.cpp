// Host-performance bench: wall-clock time the *host* spends simulating each
// kernel family, in both profiled and training (unprofiled) modes — the
// throughput limit of every figure bench and training run in this repo.
//
// Sweeps kernel families x modes on the Fig. 9 geometry (feat = 64; Kron,
// or Reddit in quick mode), reports host_ms (min over reps) and edges/s,
// and writes BENCH_hostperf.json (halfgnn-bench-v1). The quick-mode run is
// registered under ctest so the host-perf trajectory is tracked per commit:
// compare the "spmm_halfgnn profiled" row across commits to see the hot
// path getting faster or slower.
//
// Modeled numbers (time_ms etc.) are *not* the subject here — they must be
// bit-identical no matter how fast the host is; host_ms is the metric.
//
// The dense host path gets rows too: hg::gemm at three training shapes
// (X*W of a reddit-sim layer, the k = 19717 weight gradient X^T*dY of a
// pubmed-sim layer, GAT's n = 1 attention GEMV), whose modeled_ms is the
// cost ledger's GEMM charge, plus a forced-scalar X*W row and the same-run
// gemm_simd_ratio summary. spmm_halfgnn, sddmm_halfgnn_h8 and the f16 edge
// softmax chain — the kernels with a fused train path — get forced-scalar
// train rows and same-run *_train_simd_ratio summaries the same way.
// spmm_halfgnn also gets its arithmetic floor (one h2_spmm_run per CSR row)
// and the same-run spmm_halfgnn_train_floor_ratio.
//
// Usage: bench_hostperf [output.json]  (default: BENCH_hostperf.json in cwd)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "kernels/spmm_vertex.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "simt/simd.hpp"
#include "simt/simt.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::bench {
namespace {

int fail(const std::string& what) {
  std::fprintf(stderr, "bench_hostperf: FAIL: %s\n", what.c_str());
  return 1;
}

// One benched configuration: a kernel family in one mode. `run(profiled)`
// executes the kernel once and returns its KernelStats.
struct Case {
  std::string name;
  std::function<simt::KernelStats(bool profiled)> run;
};

struct Measured {
  double host_ms = std::numeric_limits<double>::infinity();
  double modeled_ms = 0;
  double lane_ops = 0;  // scalar ops the kernel performs (profiled runs only)
};

Measured measure(const Case& c, bool profiled, int reps) {
  Measured m;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto ks = c.run(profiled);
    const double wall = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Wall time around the whole call (captures kernel-side setup like
    // staging buffers, not just the executor's host_ms).
    m.host_ms = std::min(m.host_ms, wall);
    m.modeled_ms = ks.time_ms;
    m.lane_ops = static_cast<double>(ks.lane_ops);
  }
  return m;
}

int run(const std::string& path) {
  const Dataset d =
      make_dataset(quick_mode() ? DatasetId::kReddit : DatasetId::kKron);
  const auto g = kernels::view(d.csr, d.coo);
  const auto n = static_cast<std::size_t>(d.num_vertices());
  const auto m = static_cast<std::size_t>(d.num_edges());
  const int feat = 64;  // Fig. 9 geometry
  const int reps = quick_mode() ? 2 : 3;
  const auto f = static_cast<std::size_t>(feat);

  const auto xh = random_h16(n * f, 7);
  const auto wh = random_h16(m, 8);
  const auto xf = to_f32(xh);
  const auto wf = to_f32(wh);
  AlignedVec<half_t> yh(n * f);
  AlignedVec<float> yf(n * f);
  AlignedVec<half_t> eh(m);
  AlignedVec<half_t> rh(n);
  const auto groups = kernels::build_neighbor_groups(d.csr, 32);

  simt::Device dev(simt::a100_spec());
  simt::Stream stream(dev);

  kernels::HalfgnnSpmmOpts hopts;
  hopts.reduce = kernels::Reduce::kSum;
  kernels::HalfgnnSpmmOpts aopts = hopts;
  aopts.atomic_writes = true;

  const std::vector<Case> cases{
      {"spmm_halfgnn",
       [&](bool p) {
         return kernels::spmm_halfgnn(stream, p, g, wh, xh, yh, feat, hopts);
       }},
      {"spmm_halfgnn_atomic",
       [&](bool p) {
         return kernels::spmm_halfgnn(stream, p, g, wh, xh, yh, feat, aopts);
       }},
      {"spmm_cusparse_f16",
       [&](bool p) {
         return kernels::spmm_cusparse_f16(stream, p, g, wh, xh, yh, feat,
                                           kernels::Reduce::kSum);
       }},
      {"spmm_cusparse_f32",
       [&](bool p) {
         return kernels::spmm_cusparse_f32(stream, p, g, wf, xf, yf, feat,
                                           kernels::Reduce::kSum);
       }},
      {"gespmm_f32",
       [&](bool p) {
         return kernels::gespmm_f32(stream, p, g, wf, xf, yf, feat);
       }},
      {"huang_half2",
       [&](bool p) {
         return kernels::huang_half2(stream, p, g, groups, wh, xh, yh, feat);
       }},
      {"sddmm_dgl_f16",
       [&](bool p) {
         return kernels::sddmm_dgl_f16(stream, p, g, xh, xh, eh, feat);
       }},
      {"sddmm_halfgnn_h8",
       [&](bool p) {
         return kernels::sddmm_halfgnn(stream, p, g, xh, xh, eh, feat,
                                       kernels::SddmmVec::kHalf8);
       }},
      {"edge_softmax_f16",
       [&](bool p) {
         auto ks = kernels::edge_segment_reduce_f16(stream, p, g, eh, rh,
                                                    kernels::SegReduce::kMax);
         ks += kernels::edge_exp_sub_row_f16(stream, p, g, eh, rh, eh);
         ks += kernels::edge_segment_reduce_f16(stream, p, g, eh, rh,
                                                kernels::SegReduce::kSum);
         ks += kernels::edge_div_row_f16(stream, p, g, eh, rh, eh);
         return ks;
       }},
  };

  BenchTable t("hostperf", "kernel/mode",
               {{"host_ms", CellFmt::kRaw},
                {"edges_per_s", CellFmt::kRaw},
                {"lane_ops_per_s", CellFmt::kRaw},
                {"modeled_ms", CellFmt::kRaw}});
  t.report().meta("dataset", short_name(d));
  t.report().meta("vertices", static_cast<std::int64_t>(d.num_vertices()));
  t.report().meta("edges", static_cast<std::int64_t>(d.num_edges()));
  t.report().meta("feat", static_cast<std::int64_t>(feat));
  t.report().meta("threads", static_cast<std::int64_t>(dev.threads()));
  // Which lane-execution path produced the host_ms numbers (HALFGNN_SIMD).
  t.report().meta("simd", std::string(simt::simd::path_name()));

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  double spmm_profiled_ms = 0;
  std::map<std::string, double> train_ms;
  for (const auto& c : cases) {
    // The cost model charges identically on every SIMD path, so the
    // profiled run's lane_ops also describes the train run's work; the
    // interesting throughput is lane-ops/s of the *train* path.
    double lane_ops = 0;
    for (const bool profiled : {true, false}) {
      const Measured r = measure(c, profiled, reps);
      if (profiled) lane_ops = r.lane_ops;
      const double edges_per_s =
          r.host_ms > 0 ? static_cast<double>(m) / (r.host_ms / 1e3) : kNaN;
      const double lane_ops_per_s =
          (lane_ops > 0 && r.host_ms > 0) ? lane_ops / (r.host_ms / 1e3)
                                          : kNaN;
      t.row(c.name + (profiled ? " profiled" : " train"),
            {r.host_ms, edges_per_s, lane_ops_per_s,
             profiled ? r.modeled_ms : kNaN});
      if (profiled && c.name == "spmm_halfgnn") spmm_profiled_ms = r.host_ms;
      if (!profiled) train_ms[c.name] = r.host_ms;
    }
  }

  // Forced-scalar reference rows for the kernels with a fused train path:
  // every report carries each vector-vs-scalar train ratio measured on the
  // machine that produced it, so the SIMD win is gated as a same-run ratio
  // rather than a machine-dependent absolute. The scalar path never fuses,
  // so a ratio that climbs to the unfused vector path's (about 0.5 for
  // sddmm, 0.7 for the edge chain) means the fused path stopped engaging.
  // No-ops (ratio 1) when the scalar path is already active.
  const std::pair<const char*, const char*> scalar_refs[] = {
      {"spmm_halfgnn", "spmm_halfgnn_train_simd_ratio"},
      {"sddmm_halfgnn_h8", "sddmm_halfgnn_train_simd_ratio"},
      {"edge_softmax_f16", "edge_softmax_train_simd_ratio"}};
  // The two sides alternate, 2 x reps times each, so a host slowdown
  // between them moves both minima alike.
  for (const auto& [name, summary] : scalar_refs) {
    const Case& c = *std::find_if(
        cases.begin(), cases.end(),
        [&](const Case& x) { return x.name == name; });
    const simt::simd::Path active = simt::simd::active_path();
    double vector_ms = train_ms[c.name];
    double scalar_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 2 * reps; ++r) {
      vector_ms = std::min(vector_ms, measure(c, false, 1).host_ms);
      simt::simd::set_path(simt::simd::Path::kScalar);
      scalar_ms = std::min(scalar_ms, measure(c, false, 1).host_ms);
      simt::simd::set_path(active);
    }
    const double edges_per_s =
        scalar_ms > 0 ? static_cast<double>(m) / (scalar_ms / 1e3) : kNaN;
    t.row(c.name + "_scalar train", {scalar_ms, edges_per_s, kNaN, kNaN});
    t.report().summary(summary, scalar_ms > 0 ? vector_ms / scalar_ms : kNaN);
  }
  t.report().summary("spmm_halfgnn_profiled_host_ms", spmm_profiled_ms);

  // The spmm_halfgnn case's arithmetic floor: its graph, width, reduce and
  // weights as one h2_spmm_run per CSR row, with no partition, merge or
  // follow-up launch. spmm_halfgnn_train_floor_ratio is the train kernel's
  // time over the floor's, both on one host thread (the floor is serial),
  // alternating 8 x reps times, minimum of each: the two sides are only
  // ~1.5x apart, and a run under ctest's parallel load needs that many
  // draws for both minima to land in quiet stretches.
  {
    simt::Device dev1(simt::a100_spec(), 1);
    simt::Stream stream1(dev1);
    const Case train1{"spmm_halfgnn", [&](bool p) {
                        return kernels::spmm_halfgnn(stream1, p, g, wh, xh, yh,
                                                     feat, hopts);
                      }};
    const int half_f = feat / 2;
    const auto hf = static_cast<std::size_t>(half_f);
    const auto x2 = simt::as_vec<half2>(std::span<const half_t>(xh));
    const auto y2 = simt::as_vec_mut<half2>(std::span<half_t>(yh));
    const auto run_floor = [&] {
      for (vid_t r = 0; r < d.csr.num_vertices; ++r) {
        const eid_t b = d.csr.offsets[static_cast<std::size_t>(r)];
        simt::simd::ops().h2_spmm_run(
            y2.data() + static_cast<std::size_t>(r) * hf, x2.data(),
            d.csr.cols.data() + b, wh.data() + b, half2(1.0f, 1.0f),
            half2(1.0f, 1.0f), half_f, d.csr.degree(r),
            simt::simd::kHasW | simt::simd::kFromIdentity);
      }
      return simt::KernelStats{};
    };
    const Case floor{"spmm_halfgnn_floor",
                     [&](bool) { return run_floor(); }};
    double kernel_ms = std::numeric_limits<double>::infinity();
    double floor_ms = kernel_ms;
    for (int r = 0; r < 8 * reps; ++r) {
      kernel_ms = std::min(kernel_ms, measure(train1, false, 1).host_ms);
      floor_ms = std::min(floor_ms, measure(floor, false, 1).host_ms);
    }
    t.row("spmm_halfgnn_floor train",
          {floor_ms, static_cast<double>(m) / (floor_ms / 1e3), kNaN, kNaN});
    t.report().summary("spmm_halfgnn_train_floor_ratio",
                       floor_ms > 0 ? kernel_ms / floor_ms : kNaN);
  }

  // Dense GEMM rows. edges/s and lane-ops/s do not apply; modeled_ms is
  // the ledger's charge for one call (the dense cost model, gated like the
  // kernel rows).
  {
    auto f16 = [](std::int64_t r, std::int64_t c, std::uint64_t seed) {
      MTensor x = MTensor::f16(r, c);
      const auto v = random_h16(x.numel(), seed);
      std::copy(v.begin(), v.end(), x.h().begin());
      return x;
    };
    const MTensor x = f16(6000, 128, 11), w = f16(128, 64, 12);
    const MTensor xt = f16(19717, 128, 13), dy = f16(19717, 64, 14);
    const MTensor z = f16(6000, 64, 15), al = f16(64, 1, 16);
    MTensor xw = MTensor::f16(6000, 64), dw = MTensor::f32(128, 64);
    MTensor el = MTensor::f16(6000, 1);
    auto gemm_case = [](std::string name, const MTensor& a, bool ta,
                        const MTensor& b, MTensor& c) {
      return Case{std::move(name), [&a, ta, &b, &c](bool) {
                    CostLedger ledger;
                    gemm(a, ta, b, false, c, &ledger);
                    simt::KernelStats ks;
                    ks.time_ms = ledger.dense_ms;
                    return ks;
                  }};
    };
    const std::vector<Case> gemms{
        gemm_case("gemm_xw_f16", x, false, w, xw),
        gemm_case("gemm_xtdy_f16", xt, true, dy, dw),
        gemm_case("gemm_gemv_f16", z, false, al, el)};
    double xw_ms = kNaN;
    for (const auto& g : gemms) {
      const Measured r = measure(g, false, reps);
      if (g.name == "gemm_xw_f16") xw_ms = r.host_ms;
      t.row(g.name, {r.host_ms, kNaN, kNaN, r.modeled_ms});
    }
    const simt::simd::Path active = simt::simd::active_path();
    simt::simd::set_path(simt::simd::Path::kScalar);
    const double scalar_ms = measure(gemms[0], false, reps).host_ms;
    simt::simd::set_path(active);
    t.row("gemm_xw_f16_scalar", {scalar_ms, kNaN, kNaN, kNaN});
    t.report().summary("gemm_simd_ratio",
                       scalar_ms > 0 ? xw_ms / scalar_ms : kNaN);
  }
  t.finish(
      "=== Host perf: wall ms simulating each kernel family (profiled vs "
      "training mode), Fig. 9 geometry ===");

  // ctest gates on an explicit output path, independent of
  // HALFGNN_REPORT_DIR (which BenchTable::finish honors as usual).
  if (!t.report().write(path)) return fail("cannot write " + path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  obs::Json doc;
  try {
    doc = obs::Json::parse(buf.str());
  } catch (const std::exception& e) {
    return fail(std::string("re-parse of ") + path + ": " + e.what());
  }
  if (auto e = obs::validate_bench_report(doc); !e.empty()) {
    return fail("schema: " + e);
  }
  std::printf(
      "bench_hostperf: OK — wrote and validated %s (spmm_halfgnn profiled: "
      "%.2f host ms)\n",
      path.c_str(), spmm_profiled_ms);
  return 0;
}

}  // namespace
}  // namespace hg::bench

int main(int argc, char** argv) {
  return hg::bench::run(argc > 1 ? argv[1] : "BENCH_hostperf.json");
}
