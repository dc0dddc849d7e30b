// Executor scaling bench: host wall time of the Fig. 9 kernel workload as a
// function of the Device worker-pool size.
//
// The modeled device cost (time_ms) is thread-count invariant by the
// executor's determinism contract; host_ms is the wall time the pool
// actually spent. This bench sweeps threads x kernels on the Fig. 9 SpMM/
// SDDMM workload, writes BENCH_executor.json, and verifies along the way
// that every kernel's output bits match the single-threaded run — the same
// determinism sweep the ExecutorDeterminism gtest pins, but on a
// bench-sized graph.
//
// The dense host ops get the same sweep, each run under a DensePoolScope on
// the pool being measured (tensor/dense_ops.hpp): hg::gemm at the trainer's
// reddit-sim shapes (X*W 6000x128x64, the weight gradient X^T dY with
// k = 6000, dY*W^T) and softmax_xent on 6000x48 f16 logits, then one
// *_min_split row per op at the smallest size the pool splits it (two
// jobs): gemm 512x64x64, softmax_xent on 200 rows of 41 classes, f16
// axpby, add_bias_rows and scale_rows over 4096x64, relu_forward,
// relu_backward and to_dtype (f16 -> f32) over 32768x64. Those rows are the
// record behind the split sizes in dense_ops.cpp: at 2 threads a warm pool
// should be no slower there than 1 thread. The pool is kept busy for 0.3 s
// first and the ops run round-robin; host_ms is the minimum over reps,
// modeled_ms the cost ledger's charge for one call.
//
// Usage: bench_executor [output.json]   (default: BENCH_executor.json in cwd)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "simt/simt.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::bench {
namespace {

int fail(const std::string& what) {
  std::fprintf(stderr, "bench_executor: FAIL: %s\n", what.c_str());
  return 1;
}

struct KernelRun {
  std::string name;
  double host_ms = 0;    // min wall ms over reps
  double modeled_ms = 0; // device-model ms (thread-count invariant)
  std::vector<std::byte> bits;  // output bytes of the last rep
};

// The bytes of a contiguous range: a kernel's output vector or a tensor's
// storage span.
template <class Range>
std::vector<std::byte> snapshot(const Range& v) {
  const auto bytes = std::as_bytes(std::span(v));
  return {bytes.begin(), bytes.end()};
}

// Run the Fig. 9 kernel set once per rep on `stream`, keeping the minimum
// host wall time per kernel.
std::vector<KernelRun> run_workload(simt::Stream& stream,
                                    const kernels::GraphView& g,
                                    std::size_t n, std::size_t m, int feat,
                                    std::span<const half_t> xh,
                                    std::span<const half_t> wh,
                                    std::span<const float> xf,
                                    std::span<const float> wf, int reps) {
  const auto f = static_cast<std::size_t>(feat);
  AlignedVec<half_t> yh(n * f);
  AlignedVec<float> yf(n * f);
  AlignedVec<half_t> eh(m);

  std::vector<KernelRun> runs(5);
  for (int rep = 0; rep < reps; ++rep) {
    const auto cus_h = kernels::spmm_cusparse_f16(stream, true, g, wh, xh, yh,
                                                  feat, kernels::Reduce::kSum);
    runs[0].name = cus_h.name;
    runs[0].modeled_ms = cus_h.time_ms;
    runs[0].host_ms = rep == 0 ? cus_h.host_ms
                               : std::min(runs[0].host_ms, cus_h.host_ms);
    runs[0].bits = snapshot(yh);

    const auto cus_f = kernels::spmm_cusparse_f32(stream, true, g, wf, xf, yf,
                                                  feat, kernels::Reduce::kSum);
    runs[1].name = cus_f.name;
    runs[1].modeled_ms = cus_f.time_ms;
    runs[1].host_ms = rep == 0 ? cus_f.host_ms
                               : std::min(runs[1].host_ms, cus_f.host_ms);
    runs[1].bits = snapshot(yf);

    kernels::HalfgnnSpmmOpts opts;
    opts.reduce = kernels::Reduce::kSum;
    const auto ours =
        kernels::spmm_halfgnn(stream, true, g, wh, xh, yh, feat, opts);
    runs[2].name = ours.name;
    runs[2].modeled_ms = ours.time_ms;
    runs[2].host_ms =
        rep == 0 ? ours.host_ms : std::min(runs[2].host_ms, ours.host_ms);
    runs[2].bits = snapshot(yh);

    const auto dgl_sd =
        kernels::sddmm_dgl_f16(stream, true, g, xh, xh, eh, feat);
    runs[3].name = dgl_sd.name;
    runs[3].modeled_ms = dgl_sd.time_ms;
    runs[3].host_ms = rep == 0 ? dgl_sd.host_ms
                               : std::min(runs[3].host_ms, dgl_sd.host_ms);
    runs[3].bits = snapshot(eh);

    const auto ours_sd = kernels::sddmm_halfgnn(stream, true, g, xh, xh, eh,
                                                feat,
                                                kernels::SddmmVec::kHalf8);
    runs[4].name = ours_sd.name;
    runs[4].modeled_ms = ours_sd.time_ms;
    runs[4].host_ms = rep == 0 ? ours_sd.host_ms
                               : std::min(runs[4].host_ms, ours_sd.host_ms);
    runs[4].bits = snapshot(eh);
  }
  return runs;
}

// An f16 tensor of uniform random values.
MTensor random_f16(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
  MTensor t = MTensor::f16(rows, cols);
  const auto v = random_h16(t.numel(), seed);
  std::copy(v.begin(), v.end(), t.h().begin());
  return t;
}

// Inputs of the dense rows: reddit-sim's 6000 vertices, 128 input and 64
// hidden features, 41 classes padded to 48 logit columns; and the inputs of
// the *_min_split rows.
struct DenseInputs {
  MTensor x = random_f16(6000, 128, 21);
  MTensor w = random_f16(128, 64, 22);
  MTensor dy = random_f16(6000, 64, 23);
  MTensor logits = random_f16(6000, 48, 24);
  MTensor logits200 = random_f16(200, 48, 30);
  MTensor a512 = random_f16(512, 64, 25);
  MTensor w64 = random_f16(64, 64, 26);
  MTensor e4k = random_f16(4096, 64, 27);
  MTensor e32k = random_f16(32768, 64, 28);
  MTensor bias = to_dtype(random_f16(1, 64, 29), Dtype::kF32, nullptr);
  std::vector<float> row_scale = std::vector<float>(4096, 1.0f);
  std::vector<std::uint8_t> relu_mask;
  std::vector<int> labels;
  std::vector<std::uint8_t> mask, all_rows = std::vector<std::uint8_t>(200, 1);
};

DenseInputs dense_inputs() {
  DenseInputs in;
  in.labels.resize(6000);
  in.mask.resize(6000);
  for (std::size_t r = 0; r < in.labels.size(); ++r) {
    in.labels[r] = static_cast<int>(r * 7 % 41);
    in.mask[r] = r % 5 < 3 ? 1 : 0;
  }
  in.relu_mask.resize(in.e32k.numel());
  for (std::size_t i = 0; i < in.relu_mask.size(); ++i) {
    in.relu_mask[i] = static_cast<std::uint8_t>(i % 3 != 0);
  }
  return in;
}

// The dense rows on `dev`'s pool: min host ms over reps after a warm-up,
// the ledger's modeled ms, and the output bits after the last rep. The
// in-place ops rewrite one tensor call after call, the same number of calls
// at every thread count.
std::vector<KernelRun> run_dense(simt::Device& dev, const DenseInputs& in,
                                 int reps) {
  const DensePoolScope scope(&dev);
  MTensor xw = MTensor::f16(6000, 64);
  MTensor dw = MTensor::f32(128, 64);
  MTensor dx = MTensor::f16(6000, 128);
  MTensor small = MTensor::f16(512, 64);
  MTensor dlogits, dlogits_small, converted;
  MTensor axpby_y = in.e4k, biased = in.e4k, scaled = in.e4k;
  MTensor relu_fwd = in.e32k, relu_bwd = in.e32k;
  std::vector<std::uint8_t> relu_out;
  double loss = 0, loss_small = 0;
  struct Op {
    std::string name;
    std::function<void(CostLedger*)> run;
    std::function<std::vector<std::byte>()> bits;
  };
  const auto bits_of = [](const MTensor& t) {
    return t.dtype() == Dtype::kF16 ? snapshot(t.h()) : snapshot(t.f());
  };
  const auto with_loss = [](std::vector<std::byte> b, double v) {
    const auto lb = std::as_bytes(std::span(&v, 1));
    b.insert(b.end(), lb.begin(), lb.end());
    return b;
  };
  const std::vector<Op> ops{
      {"gemm_xw_f16",
       [&](CostLedger* l) { gemm(in.x, false, in.w, false, xw, l); },
       [&] { return bits_of(xw); }},
      {"gemm_xtdy_f16",
       [&](CostLedger* l) { gemm(in.x, true, in.dy, false, dw, l); },
       [&] { return bits_of(dw); }},
      {"gemm_dywt_f16",
       [&](CostLedger* l) { gemm(in.dy, false, in.w, true, dx, l); },
       [&] { return bits_of(dx); }},
      {"softmax_xent_f16",
       [&](CostLedger* l) {
         loss = softmax_xent(in.logits, in.labels, in.mask, true, 41,
                             1024.0f, &dlogits, l)
                    .loss;
       },
       [&] { return with_loss(bits_of(dlogits), loss); }},
      {"gemm_min_split_f16",
       [&](CostLedger* l) { gemm(in.a512, false, in.w64, false, small, l); },
       [&] { return bits_of(small); }},
      {"softmax_xent_min_split_f16",
       [&](CostLedger* l) {
         loss_small =
             softmax_xent(in.logits200, std::span(in.labels).first(200),
                          in.all_rows, true, 41, 1024.0f, &dlogits_small, l)
                 .loss;
       },
       [&] { return with_loss(bits_of(dlogits_small), loss_small); }},
      {"axpby_min_split_f16",
       [&](CostLedger* l) { axpby(in.e4k, 0.5f, axpby_y, -0.25f, l); },
       [&] { return bits_of(axpby_y); }},
      {"add_bias_rows_min_split_f16",
       [&](CostLedger* l) { add_bias_rows(biased, in.bias, l); },
       [&] { return bits_of(biased); }},
      {"scale_rows_min_split_f16",
       [&](CostLedger* l) { scale_rows(scaled, in.row_scale, l); },
       [&] { return bits_of(scaled); }},
      {"relu_forward_min_split_f16",
       [&](CostLedger* l) { relu_forward(relu_fwd, relu_out, l); },
       [&] {
         auto b = bits_of(relu_fwd);
         const auto m = std::as_bytes(std::span(relu_out));
         b.insert(b.end(), m.begin(), m.end());
         return b;
       }},
      {"relu_backward_min_split_f16",
       [&](CostLedger* l) { relu_backward(relu_bwd, in.relu_mask, l); },
       [&] { return bits_of(relu_bwd); }},
      {"to_dtype_min_split_f16",
       [&](CostLedger* l) { converted = to_dtype(in.e32k, Dtype::kF32, l); },
       [&] { return bits_of(converted); }}};
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  // Wake the workers: on a shared host a pool that has been idle runs its
  // first calls no faster than one thread, so keep it busy for a while.
  for (const auto t0 = Clock::now(); ms_since(t0) < 300;) {
    ops[0].run(nullptr);
  }
  std::vector<KernelRun> runs(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    runs[i].name = ops[i].name;
    CostLedger ledger;
    ops[i].run(&ledger);
    runs[i].modeled_ms = ledger.total_ms();
  }
  // Round-robin reps keep the pool busy between the timed calls.
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto t0 = Clock::now();
      ops[i].run(nullptr);
      const double ms = ms_since(t0);
      runs[i].host_ms = rep == 0 ? ms : std::min(runs[i].host_ms, ms);
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) runs[i].bits = ops[i].bits();
  return runs;
}

int run(const std::string& path) {
  // Quick mode trades graph size for ctest latency; the full run uses the
  // Fig. 9 quick dataset (Kron) whose 262k edges give the pool real work.
  const Dataset d =
      make_dataset(quick_mode() ? DatasetId::kReddit : DatasetId::kKron);
  const auto g = kernels::view(d.csr, d.coo);
  const auto n = static_cast<std::size_t>(d.num_vertices());
  const auto m = static_cast<std::size_t>(d.num_edges());
  const int feat = 64;
  const int reps = quick_mode() ? 2 : 3;
  const auto f = static_cast<std::size_t>(feat);

  const auto xh = random_h16(n * f, 7);
  const auto wh = random_h16(m, 8);
  const auto xf = to_f32(xh);
  const auto wf = to_f32(wh);

  std::vector<int> thread_counts{1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 4) thread_counts.push_back(std::min(hw, 16));

  BenchTable t("executor", "kernel/threads",
               {{"host_ms", CellFmt::kRaw},
                {"modeled_ms", CellFmt::kRaw},
                {"speedup vs 1T", CellFmt::kTimes}});
  t.report().meta("dataset", short_name(d));
  t.report().meta("vertices", static_cast<std::int64_t>(d.num_vertices()));
  t.report().meta("edges", static_cast<std::int64_t>(d.num_edges()));
  t.report().meta("feat", static_cast<std::int64_t>(feat));
  t.report().meta("hardware_concurrency", static_cast<std::int64_t>(hw));

  const DenseInputs dense = dense_inputs();
  const int dense_reps = quick_mode() ? 20 : 50;
  std::vector<KernelRun> base;  // threads == 1
  double spmm_speedup_at_4 = 0;
  for (const int threads : thread_counts) {
    simt::Device dev(simt::a100_spec(), threads);
    simt::Stream stream(dev);
    auto runs = run_workload(stream, g, n, m, feat, xh, wh, xf, wf, reps);
    for (auto& r : run_dense(dev, dense, dense_reps)) {
      runs.push_back(std::move(r));
    }
    if (threads == 1) base = runs;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      // Determinism sweep: every thread count must reproduce the
      // single-threaded output bit-for-bit.
      if (runs[k].bits != base[k].bits) {
        return fail(runs[k].name + ": output bits differ at threads=" +
                    std::to_string(threads));
      }
      const double speedup = base[k].host_ms > 0 && runs[k].host_ms > 0
                                 ? base[k].host_ms / runs[k].host_ms
                                 : 1.0;
      if (threads == 4 && runs[k].name.rfind("spmm", 0) == 0) {
        spmm_speedup_at_4 = std::max(spmm_speedup_at_4, speedup);
      }
      t.row(runs[k].name + " t=" + std::to_string(threads),
            {runs[k].host_ms, runs[k].modeled_ms, speedup});
    }
  }
  t.report().summary("max_spmm_speedup_4_threads", spmm_speedup_at_4);
  const std::string written = t.finish(
      "=== Executor scaling: host wall ms per kernel vs worker threads "
      "(modeled ms is thread-invariant by construction) ===");

  // Also honor the bench_smoke-style explicit output path so ctest can gate
  // on a file it controls regardless of HALFGNN_REPORT_DIR.
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
  (void)written;

  if (spmm_speedup_at_4 < 2.0) {
    std::fprintf(stderr,
                 "bench_executor: WARNING: best SpMM speedup at 4 threads is "
                 "%.2fx (< 2x) — machine may be loaded or undersized\n",
                 spmm_speedup_at_4);
  }
  std::printf("bench_executor: OK — wrote and validated %s "
              "(best SpMM speedup at 4 threads: %.2fx)\n",
              path.c_str(), spmm_speedup_at_4);
  return 0;
}

}  // namespace
}  // namespace hg::bench

int main(int argc, char** argv) {
  return hg::bench::run(argc > 1 ? argv[1] : "BENCH_executor.json");
}
