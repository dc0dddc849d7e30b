// Kernel profiler: run any SpMM/SDDMM variant on any dataset under the
// SIMT cost model and print NCU-style counters.
//
//   usage: kernel_profiler [dataset 1..16] [feat]
//   e.g.   ./build/examples/kernel_profiler 15 64
#include <cstdio>
#include <iostream>

#include "graph/datasets.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "kernels/spmm_vertex.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace {

void report(const char* name, const hg::simt::KernelStats& ks) {
  std::printf(
      "%-22s %8.4f ms | BW %5.1f%% SM %5.1f%% | ld %8llu st %7llu atomics "
      "%6llu | bytes %9.2f MB (useful %5.1f%%)\n",
      name, ks.time_ms, 100 * ks.bw_utilization, 100 * ks.sm_utilization,
      static_cast<unsigned long long>(ks.ld_instrs),
      static_cast<unsigned long long>(ks.st_instrs),
      static_cast<unsigned long long>(ks.atomic_instrs),
      static_cast<double>(ks.bytes_moved) / (1024 * 1024),
      100.0 * static_cast<double>(ks.useful_bytes) /
          static_cast<double>(std::max<std::uint64_t>(1, ks.bytes_moved)));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hg;
  using namespace hg::kernels;

  const int ds = argc > 1 ? util::to_int<int>(argv[1]).value_or(0) : 15;
  const int feat = argc > 2 ? util::to_int<int>(argv[2]).value_or(0) : 64;
  if (ds < 1 || ds > kNumDatasets || feat < 8 || feat % 8 != 0) {
    std::fprintf(stderr, "usage: %s [dataset 1..16] [feat multiple of 8]\n",
                 argv[0]);
    return 1;
  }

  const Dataset d = make_dataset(static_cast<DatasetId>(ds));
  const auto g = view(d.csr, d.coo);
  std::printf("dataset %s: |V|=%d |E|=%ld, F=%d\n\n", d.name.c_str(),
              d.num_vertices(), static_cast<long>(d.num_edges()), feat);

  Rng rng(1);
  const auto n = static_cast<std::size_t>(d.num_vertices());
  const auto m = static_cast<std::size_t>(d.num_edges());
  const auto f = static_cast<std::size_t>(feat);
  AlignedVec<half_t> xh(n * f), wh(m);
  for (auto& v : xh) v = half_t(rng.next_float() * 2 - 1);
  for (auto& v : wh) v = half_t(rng.next_float() * 2 - 1);
  AlignedVec<float> xf(n * f), wf(m);
  for (std::size_t i = 0; i < xf.size(); ++i) xf[i] = xh[i].to_float();
  for (std::size_t i = 0; i < wf.size(); ++i) wf[i] = wh[i].to_float();
  AlignedVec<half_t> yh(n * f), eh(m);
  AlignedVec<float> yf(n * f), ef(m);
  auto& stream = simt::default_stream();

  std::puts("-- SpMM (SpMMve, sum) --");
  report("cusparse-float",
         spmm_cusparse_f32(stream, true, g, wf, xf, yf, feat, Reduce::kSum));
  report("cusparse-half",
         spmm_cusparse_f16(stream, true, g, wh, xh, yh, feat, Reduce::kSum));
  HalfgnnSpmmOpts opts;
  report("halfgnn", spmm_halfgnn(stream, true, g, wh, xh, yh, feat, opts));
  opts.atomic_writes = true;
  report("halfgnn (atomics)",
         spmm_halfgnn(stream, true, g, wh, xh, yh, feat, opts));
  const auto ng = build_neighbor_groups(d.csr);
  report("gespmm-float", gespmm_f32(stream, true, g, wf, xf, yf, feat));
  report("huang-float", huang_f32(stream, true, g, ng, wf, xf, yf, feat));
  report("huang-half2", huang_half2(stream, true, g, ng, wh, xh, yh, feat));

  std::puts("\n-- SDDMM --");
  report("dgl-float", sddmm_dgl_f32(stream, true, g, xf, xf, ef, feat));
  report("dgl-half", sddmm_dgl_f16(stream, true, g, xh, xh, eh, feat));
  report("halfgnn-half2",
         sddmm_halfgnn(stream, true, g, xh, xh, eh, feat, SddmmVec::kHalf2));
  report("halfgnn-half8",
         sddmm_halfgnn(stream, true, g, xh, xh, eh, feat, SddmmVec::kHalf8));
  return 0;
}
