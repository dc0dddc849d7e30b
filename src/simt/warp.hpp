// Warp<Profiled>: the unit of simulated SIMT execution.
//
// Kernels in this repository are written *warp-centric*: a kernel body
// receives warps and manipulates 32-lane register arrays explicitly. The
// Warp object provides the GPU-visible operations — global gathers/stores
// with sector-level coalescing, warp shuffles, atomics — and, when
// `Profiled` is true, charges the DeviceSpec cost model for each of them.
// When `Profiled` is false every accounting path compiles away and the same
// kernel code runs at full host speed with bit-identical numerics; training
// uses that mode, the figure benches use the profiled mode.
//
// Cost model summary (see DESIGN.md Sec. 1):
//   load/store  -> issue cost + (unique 32B sectors) x sector cost; loads
//                  join a pending pipeline whose latency is exposed once
//                  per sync point (shuffle / explicit sync / CTA barrier) —
//                  this is the "implicit memory barrier" effect of
//                  Sec. 5.1.1 that half8 loads amortize.
//   arithmetic  -> one issue per instruction; half2 performs 2 lane-ops
//                  per issue (Fig. 3c), the naive path pays 3 extra
//                  conversion issues (Fig. 3a).
//   atomics     -> base cost x (half ? CAS-loop penalty : 1) x the size of
//                  the largest same-word conflict group in the warp.
//
// Host-performance note: per-instruction charges accumulate into a private
// POD counter block (`WarpCounters`) and flush into the shared KernelStats
// shard exactly once, in finish(). The shard may be shared by every warp of
// a CTA chunk, so per-instruction read-modify-write of it was both a cache
// ping-pong and a dependency chain in the hot loop. All cost-model charge
// values are multiples of 0.5 (see DeviceSpec), so the double-precision
// sums are exact and the deferred flush is bit-identical to per-instruction
// accumulation in any association order.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

#include "half/bf16.hpp"
#include "half/half.hpp"
#include "half/vec.hpp"
#include "obs/prof/prof.hpp"
#include "simt/accounting.hpp"
#include "simt/fault.hpp"
#include "simt/sanitizer.hpp"
#include "simt/simd.hpp"
#include "simt/spec.hpp"
#include "simt/stats.hpp"

namespace hg::simt {

namespace detail {

// Natural alignment the memcheck checker enforces for packed vector types
// (the as_vec contract of paper Sec. 5.1.2); 0 = no requirement.
template <class T>
inline constexpr std::size_t san_align_v =
    std::is_same_v<T, half2> || std::is_same_v<T, half4> ||
            std::is_same_v<T, half8>
        ? sizeof(T)
        : 0;

}  // namespace detail

using LaneMask = std::uint32_t;
inline constexpr LaneMask kFullMask = 0xFFFFFFFFu;
inline constexpr int kWarpSize = 32;

// First `n` lanes active.
constexpr LaneMask prefix_mask(int n) noexcept {
  return n >= 32 ? kFullMask : ((LaneMask{1} << n) - 1);
}

template <class T>
using Lanes = std::array<T, kWarpSize>;

// How two values merge in a shuffle reduction, an atomic RMW or the
// executor's staged merge: a sum, or the bit-preserving max select
// (a < b ? b : a — a NaN on the right is dropped, one on the left kept).
// The SIMD dispatch entries implement exactly combine() per lane.
enum class WarpCombine { kAdd, kMax };

template <class T>
T combine(WarpCombine k, T a, T b) noexcept {
  if constexpr (std::is_same_v<T, half2>) {
    return k == WarpCombine::kMax ? h2max(a, b) : h2add(a, b);
  } else if constexpr (std::is_same_v<T, float>) {
    return k == WarpCombine::kMax ? (a < b ? b : a) : ordered_fadd(a, b);
  } else {
    return k == WarpCombine::kMax ? (a < b ? b : a) : a + b;
  }
}

// The start value of a combine() fold: +0 for kAdd, -Inf for kMax.
template <class T>
T combine_identity(WarpCombine k) noexcept {
  if (k == WarpCombine::kAdd) return T{};
  if constexpr (std::is_same_v<T, half2>) {
    return half2::broadcast(half_limits::kNegInf);
  } else if constexpr (std::is_same_v<T, half_t>) {
    return half_limits::kNegInf;
  } else if constexpr (std::is_same_v<T, bf16_t>) {
    return bf16_limits::kNegInf;
  } else {
    return -std::numeric_limits<T>::infinity();
  }
}

// acc[i] = combine(k, acc[i], v[i]) for i < n: lane-batched on the active
// SIMD path for float, half and half2, per element for bf16.
template <class T>
void combine_n(WarpCombine k, T* acc, const T* v, int n) {
  const bool is_max = k == WarpCombine::kMax;
  if constexpr (std::is_same_v<T, float>) {
    simd::ops().f_accum(acc, v, 1.0f, n, is_max ? simd::kIsMax : 0u);
  } else if constexpr (std::is_same_v<T, half_t>) {
    simd::ops().h_accum(acc, v, n, is_max);
  } else if constexpr (std::is_same_v<T, half2>) {
    simd::ops().h2_combine(acc, v, n, is_max);
  } else {
    for (int i = 0; i < n; ++i) acc[i] = combine(k, acc[i], v[i]);
  }
}

// Everything Device::arm armed for one launch, handed to every CTA and
// warp; a launch with nothing armed passes nullptr instead.
struct LaunchHooks {
  detail::LaunchFaultState* faults = nullptr;  // data-corrupting faults only
  detail::LaunchSanState* san = nullptr;
  obs::prof::detail::LaunchProfState* prof = nullptr;
};

// Per-warp accumulation of everything a warp charges to KernelStats.
// Flushed once per warp in Warp::finish(); see the header note on why the
// deferred flush is exact.
struct WarpCounters {
  std::uint64_t bytes_moved = 0;
  std::uint64_t useful_bytes = 0;
  std::uint64_t ld_instrs = 0;
  std::uint64_t st_instrs = 0;
  std::uint64_t sectors = 0;
  std::uint64_t alu_instrs = 0;
  std::uint64_t lane_ops = 0;
  std::uint64_t cvt_instrs = 0;
  std::uint64_t smem_instrs = 0;
  std::uint64_t shfl_instrs = 0;
  std::uint64_t atomic_instrs = 0;
  std::uint64_t atomic_serialized = 0;
  double issue_cycles = 0;
  double mem_cycles = 0;
  double stall_cycles = 0;
  double atomic_wait_cycles = 0;
};

template <bool Profiled>
class Warp {
 public:
  // The sanitizer view is the thread's CtaSan, which the owning Cta has
  // already bound to this CTA.
  Warp(const DeviceSpec& spec, KernelStats& ks, int warp_in_cta, int cta_id,
       const LaunchHooks* hooks) noexcept
      : spec_(spec), ks_(ks), warp_in_cta_(warp_in_cta), cta_id_(cta_id) {
    if (hooks == nullptr) return;
    faults_ = hooks->faults;
    if (hooks->san != nullptr) san_ = &detail::CtaSan::local();
    // Warps only sample stores when the numerics analyzer is armed; a
    // roofline-only profiler stays entirely out of the CTA path.
    if (hooks->prof != nullptr && hooks->prof->numerics()) prof_ = hooks->prof;
  }

  Warp(const Warp&) = delete;
  Warp& operator=(const Warp&) = delete;

  int warp_in_cta() const noexcept { return warp_in_cta_; }
  int cta_id() const noexcept { return cta_id_; }

  // True when nothing observes per-access behavior: training mode with
  // fault injection, the sanitizer, and the store profiler all disarmed.
  // Kernels may then run fused fast loops that bypass the per-access hook
  // sites entirely — there is nothing to fire and no accounting to charge —
  // provided the fused math is bit-identical to the per-access sequence it
  // replaces (property-tested in tests/simt/simd_test.cpp). Any armed hook
  // or the profiled mode forces the unfused loops, whose per-access
  // ordinals and charges are the contract.
  bool fused_fast_path() const noexcept {
    if constexpr (Profiled) {
      return false;
    } else {
      return faults_ == nullptr && san_ == nullptr && prof_ == nullptr;
    }
  }

  // Declares the data-load instruction-level parallelism of the kernel's
  // design: how many independent load instructions it keeps in flight.
  // This is the paper's own mechanism — the two-phase data load (Sec. 4.1)
  // and the half4/half8 types (Sec. 5.1.2) exist precisely to issue more
  // loads before the implicit memory barrier. Amortized MSHR stall per
  // load divides by this factor.
  void set_load_ilp(double ilp) noexcept { load_ilp_ = std::max(1.0, ilp); }

  // ----- global memory ------------------------------------------------

  // Gather: lane l (if active) reads mem[idx[l]].
  template <class T>
  void gather(std::span<const T> mem, const Lanes<std::int64_t>& idx,
              LaneMask active, Lanes<T>& out) {
    if (san_ != nullptr) {
      active = san_check_lanes<T>(mem.data(), mem.size(), idx, active,
                                  /*is_load=*/true);
    }
    // Contiguous prefix runs (the dominant feature-access pattern) become a
    // single block copy on the vector path; anything else — and the scalar
    // reference path — takes the per-lane loop. The copied bytes are
    // identical either way, and the hook/accounting calls below see the
    // same (idx, active) in both.
    const int cn = simd::vector_enabled() && std::is_trivially_copyable_v<T>
                       ? simd::prefix_contiguous(idx, active)
                       : 0;
    if (cn > 0) {
      assert(static_cast<std::size_t>(idx[0]) + static_cast<std::size_t>(cn) <=
             mem.size());
      std::memcpy(out.data(), mem.data() + idx[0],
                  static_cast<std::size_t>(cn) * sizeof(T));
    } else {
      for (int l = 0; l < kWarpSize; ++l) {
        if (active >> l & 1) {
          assert(idx[l] >= 0 &&
                 static_cast<std::size_t>(idx[l]) < mem.size());
          out[static_cast<std::size_t>(l)] =
              mem[static_cast<std::size_t>(idx[l])];
        }
      }
    }
    if (faults_ != nullptr) fault_loaded(out, active);
    if constexpr (Profiled) account_access<T>(idx, active, /*is_load=*/true);
  }

  // Contiguous load: lane l reads mem[base + l] for l < count. `count`
  // must fit the warp — a wider request would silently overflow Lanes<T>.
  template <class T>
  void load_contiguous(std::span<const T> mem, std::int64_t base, int count,
                       Lanes<T>& out) {
    if (san_ != nullptr) {
      count = san_check_range<T>(mem.data(), mem.size(), base, count,
                                 /*is_load=*/true);
    }
    assert(count >= 0 && count <= kWarpSize);
    assert(count == 0 ||
           (base >= 0 && static_cast<std::size_t>(base) +
                             static_cast<std::size_t>(count) <=
                         mem.size()));
    if (simd::vector_enabled() && std::is_trivially_copyable_v<T> &&
        count > 0) {
      std::memcpy(out.data(), mem.data() + base,
                  static_cast<std::size_t>(count) * sizeof(T));
    } else {
      for (int l = 0; l < count; ++l) {
        out[static_cast<std::size_t>(l)] =
            mem[static_cast<std::size_t>(base + l)];
      }
    }
    if (faults_ != nullptr) fault_loaded(out, prefix_mask(count));
    if constexpr (Profiled) {
      account_contiguous<T>(base, count, /*is_load=*/true);
    }
  }

  // Scatter store: lane l (if active) writes mem[idx[l]] = vals[l].
  template <class T>
  void scatter(std::span<T> mem, const Lanes<std::int64_t>& idx,
               LaneMask active, const Lanes<T>& vals) {
    if (san_ != nullptr) {
      active = san_check_lanes<T>(mem.data(), mem.size(), idx, active,
                                  /*is_load=*/false);
      san_note_scatter<T>(mem.data(), idx, active);
    }
    const int cn = simd::vector_enabled() && std::is_trivially_copyable_v<T>
                       ? simd::prefix_contiguous(idx, active)
                       : 0;
    if (cn > 0) {
      assert(static_cast<std::size_t>(idx[0]) + static_cast<std::size_t>(cn) <=
             mem.size());
      std::memcpy(mem.data() + idx[0], vals.data(),
                  static_cast<std::size_t>(cn) * sizeof(T));
    } else {
      for (int l = 0; l < kWarpSize; ++l) {
        if (active >> l & 1) {
          assert(idx[l] >= 0 &&
                 static_cast<std::size_t>(idx[l]) < mem.size());
          mem[static_cast<std::size_t>(idx[l])] =
              vals[static_cast<std::size_t>(l)];
        }
      }
    }
    if (faults_ != nullptr) fault_stored(mem, idx, active);
    if (prof_ != nullptr) prof_stored<T>(mem, idx, active);
    if constexpr (Profiled) account_access<T>(idx, active, /*is_load=*/false);
  }

  template <class T>
  void store_contiguous(std::span<T> mem, std::int64_t base, int count,
                        const Lanes<T>& vals) {
    if (san_ != nullptr) {
      count = san_check_range<T>(mem.data(), mem.size(), base, count,
                                 /*is_load=*/false);
      san_note_store_range<T>(mem.data(), base, count);
    }
    assert(count >= 0 && count <= kWarpSize);
    assert(count == 0 ||
           (base >= 0 && static_cast<std::size_t>(base) +
                             static_cast<std::size_t>(count) <=
                         mem.size()));
    if (simd::vector_enabled() && std::is_trivially_copyable_v<T> &&
        count > 0) {
      std::memcpy(mem.data() + base, vals.data(),
                  static_cast<std::size_t>(count) * sizeof(T));
    } else {
      for (int l = 0; l < count; ++l) {
        mem[static_cast<std::size_t>(base + l)] =
            vals[static_cast<std::size_t>(l)];
      }
    }
    if (faults_ != nullptr) fault_stored_contiguous(mem, base, count);
    if (prof_ != nullptr) prof_stored_contiguous<T>(mem, base, count);
    if constexpr (Profiled) {
      account_contiguous<T>(base, count, /*is_load=*/false);
    }
  }

  // ----- atomics --------------------------------------------------------

  // Atomic read-modify-write slot = combine(k, slot, v) on float, half or
  // packed half2: lanes serialize per target element. `contention` is the
  // expected number of concurrent agents (other warps / CTAs) racing for
  // the same destination words: a CAS/RMW to a contended address
  // serializes across the device, so the cost multiplies. The caller knows
  // this number (e.g. how many warps share a split row); the warp alone
  // cannot see it. Half atomics are CAS loops on hardware (the half cost
  // penalty), and a half_t CAS owns the containing 32-bit word, so two
  // lanes hitting *neighboring* halves conflict too — word_elems = 2. The
  // float max is commonly lowered via atomicMax on the int representation.
  template <class T>
  void atomic(WarpCombine k, std::span<T> mem, const Lanes<std::int64_t>& idx,
              LaneMask active, const Lanes<T>& vals, int contention = 1) {
    static_assert(std::is_same_v<T, float> || std::is_same_v<T, half_t> ||
                      std::is_same_v<T, half2>,
                  "atomics cover float/half/half2");
    if (san_ != nullptr) {
      // Atomics are race-free RMWs on hardware: bounds-checked, never
      // recorded as plain-store conflicts.
      active = san_check_lanes<T>(mem.data(), mem.size(), idx, active,
                                  /*is_load=*/false);
    }
    // Contiguous targets are pairwise distinct, so the lane-serial RMW loop
    // and a batched combine see the same memory state per element; the
    // serialization/contention charge below is unchanged either way.
    const int cn = simd::vector_enabled() ? simd::prefix_contiguous(idx, active)
                                          : 0;
    if (cn > 0) {
      combine_n(k, mem.data() + idx[0], vals.data(), cn);
    } else {
      for (int l = 0; l < kWarpSize; ++l) {
        if (active >> l & 1) {
          T& slot = mem[static_cast<std::size_t>(idx[l])];
          slot = combine(k, slot, vals[static_cast<std::size_t>(l)]);
        }
      }
    }
    if (faults_ != nullptr) fault_stored(mem, idx, active);
    if (prof_ != nullptr) prof_stored(mem, idx, active);
    if constexpr (Profiled) {
      account_atomic(idx, active,
                     /*word_elems=*/std::is_same_v<T, half_t> ? 2 : 1,
                     /*half_cost=*/!std::is_same_v<T, float>, contention);
    }
  }

  template <class T>
  void atomic_add(std::span<T> mem, const Lanes<std::int64_t>& idx,
                  LaneMask active, const Lanes<T>& vals, int contention = 1) {
    atomic(WarpCombine::kAdd, mem, idx, active, vals, contention);
  }

  template <class T>
  void atomic_max(std::span<T> mem, const Lanes<std::int64_t>& idx,
                  LaneMask active, const Lanes<T>& vals, int contention = 1) {
    atomic(WarpCombine::kMax, mem, idx, active, vals, contention);
  }

  // ----- warp-internal communication -------------------------------------

  // Full butterfly reduction over sub-warp groups of `group_width` lanes
  // (a power of two): rounds at offsets 1, 2, 4, .. below the width, each
  // vals[l] <- combine(k, vals[l], vals[l ^ offset]) on the active lanes.
  // The active SIMD path runs every round in one call (bf16, which has no
  // SIMD entry, the reference loop); after it every lane of a group holds
  // the group's reduction. Each round is still charged as one shuffle plus
  // one `op_class` combine, and a shuffle synchronizes the warp, so pending
  // load latency is exposed at the first.
  template <class T>
  void butterfly_reduce(Lanes<T>& vals, int group_width, LaneMask active,
                        Op op_class, WarpCombine k) {
    assert((group_width & (group_width - 1)) == 0 && group_width >= 1);
    const bool is_max = k == WarpCombine::kMax;
    if constexpr (std::is_same_v<T, half2>) {
      simd::ops().group_reduce_h2(vals, group_width, active, is_max);
    } else if constexpr (std::is_same_v<T, half_t>) {
      simd::ops().group_reduce_h(vals, group_width, active, is_max);
    } else if constexpr (std::is_same_v<T, float>) {
      simd::ops().group_reduce_f(vals, group_width, active, is_max);
    } else {
      simd::scalar::group_reduce(vals, group_width, active,
                                 [k](T v, T o) { return combine(k, v, o); });
    }
    if constexpr (Profiled) {
      for (int offset = 1; offset < group_width; offset <<= 1) {
        sync();
        acc_.shfl_instrs += 1;
        issue(spec_.shfl_cycles);
        alu(op_class, 1);
      }
    } else {
      (void)op_class;
    }
  }

  // Expose pending load latency (named after __syncwarp).
  void sync() {
    if constexpr (Profiled) {
      if (pending_loads_ > 0) {
        stall(spec_.load_latency);
        pending_loads_ = 0;
      }
    }
  }

  // Cycle buckets: instruction issue, memory throughput, stall exposure.
  double issue_cycles() const noexcept { return issue_; }
  double mem_cycles() const noexcept { return mem_; }

  // ----- arithmetic accounting -------------------------------------------

  // Charge `n` instructions of the given class. Functional math is done by
  // the caller with hg::half_t / hg::half2 types; this only meters cost.
  void alu(Op c, int n = 1, int active_lanes = kWarpSize) {
    if constexpr (Profiled) {
      switch (c) {
        case Op::kFloatAlu:
        case Op::kIntAlu:
          acc_.alu_instrs += static_cast<std::uint64_t>(n);
          acc_.lane_ops += static_cast<std::uint64_t>(n) *
                           static_cast<std::uint64_t>(active_lanes);
          issue(n * spec_.alu_cycles);
          break;
        case Op::kHalfIntrin:
          acc_.alu_instrs += static_cast<std::uint64_t>(n);
          acc_.lane_ops += static_cast<std::uint64_t>(n) *
                           static_cast<std::uint64_t>(active_lanes);
          issue(n * spec_.alu_cycles);
          break;
        case Op::kHalf2:
          acc_.alu_instrs += static_cast<std::uint64_t>(n);
          acc_.lane_ops += 2ull * static_cast<std::uint64_t>(n) *
                           static_cast<std::uint64_t>(active_lanes);
          issue(n * spec_.alu_cycles);
          break;
        case Op::kHalfNaive:
          // Fig. 3a: cvt up (x2), float op, cvt down.
          acc_.alu_instrs += static_cast<std::uint64_t>(n);
          acc_.cvt_instrs += 3ull * static_cast<std::uint64_t>(n);
          acc_.lane_ops += static_cast<std::uint64_t>(n) *
                           static_cast<std::uint64_t>(active_lanes);
          issue(n * (spec_.alu_cycles + 3 * spec_.cvt_cycles));
          break;
        case Op::kCvt:
          acc_.cvt_instrs += static_cast<std::uint64_t>(n);
          issue(n * spec_.cvt_cycles);
          break;
        case Op::kSpecial:
          acc_.alu_instrs += static_cast<std::uint64_t>(n);
          acc_.lane_ops += static_cast<std::uint64_t>(n) *
                           static_cast<std::uint64_t>(active_lanes);
          issue(n * spec_.special_cycles);
          break;
      }
    } else {
      (void)c;
      (void)n;
      (void)active_lanes;
    }
  }

  // Charge shared-memory access instructions (functional shared memory
  // lives in the Cta arena; only the cost flows through here).
  void smem_access(int n = 1) {
    if constexpr (Profiled) {
      acc_.smem_instrs += static_cast<std::uint64_t>(n);
      issue(n * spec_.smem_cycles);
    } else {
      (void)n;
    }
  }

  // ----- cycle bookkeeping (used by Cta / launch) --------------------------

  double busy_cycles() const noexcept { return issue_ + mem_; }
  double stall_cycles() const noexcept { return stall_; }

  void align_to(double issue, double mem, double stall) noexcept {
    issue_ = issue;
    mem_ = mem;
    stall_ = stall;
  }

  // End of the warp's kernel body: expose trailing load latency and flush
  // the batched counters into the shared stats shard (once per warp).
  void finish() {
    sync();
    if constexpr (Profiled) flush();
    if (faults_ != nullptr) flush_faults();
    if (prof_ != nullptr) wprof_.flush(*prof_);
  }

 private:
  void issue(double c) noexcept {
    issue_ += c;
    acc_.issue_cycles += c;
  }
  void memq(double c) noexcept {
    mem_ += c;
    acc_.mem_cycles += c;
  }
  void stall(double c) noexcept {
    stall_ += c;
    acc_.stall_cycles += c;
  }

  void flush() noexcept {
    ks_.bytes_moved += acc_.bytes_moved;
    ks_.useful_bytes += acc_.useful_bytes;
    ks_.ld_instrs += acc_.ld_instrs;
    ks_.st_instrs += acc_.st_instrs;
    ks_.sectors += acc_.sectors;
    ks_.alu_instrs += acc_.alu_instrs;
    ks_.lane_ops += acc_.lane_ops;
    ks_.cvt_instrs += acc_.cvt_instrs;
    ks_.smem_instrs += acc_.smem_instrs;
    ks_.shfl_instrs += acc_.shfl_instrs;
    ks_.atomic_instrs += acc_.atomic_instrs;
    ks_.atomic_serialized += acc_.atomic_serialized;
    ks_.issue_cycles += acc_.issue_cycles;
    ks_.mem_cycles += acc_.mem_cycles;
    ks_.stall_cycles += acc_.stall_cycles;
    ks_.atomic_wait_cycles += acc_.atomic_wait_cycles;
    ks_.warp_busy_cycles += acc_.issue_cycles + acc_.mem_cycles;
    acc_ = WarpCounters{};
  }

  // ----- fault injection (see simt/fault.hpp) ------------------------------
  // Reached only behind the `faults_ != nullptr` check at each access site,
  // so a fault-free launch pays one pointer compare per access. Decisions
  // hash (launch seed, cta, warp, per-warp access ordinal, lane) — nothing
  // schedule-dependent — and counts stay warp-local until one atomic flush
  // in finish(), preserving the executor's bit-reproducibility contract at
  // every thread count.

  std::uint64_t fault_access_key() noexcept {
    return detail::fault_mix(faults_->flip_seed ^
                             (static_cast<std::uint64_t>(cta_id_) << 40) ^
                             (static_cast<std::uint64_t>(warp_in_cta_) << 32) ^
                             fault_ctr_++);
  }

  template <class T>
  void fault_loaded(Lanes<T>& vals, LaneMask active) {
    if constexpr (detail::fault_flippable_v<T>) {
      if (faults_->flip_threshold == 0) return;
      const std::uint64_t key = fault_access_key();
      for (int l = 0; l < kWarpSize; ++l) {
        if (!(active >> l & 1)) continue;
        const std::uint64_t h =
            detail::fault_mix(key ^ static_cast<std::uint64_t>(l));
        if (h < faults_->flip_threshold) {
          detail::fault_flip(vals[static_cast<std::size_t>(l)],
                             detail::fault_mix(h));
          ++fault_flips_;
        }
      }
    } else {
      (void)vals;
      (void)active;
    }
  }

  template <class T>
  void fault_stored(std::span<T> mem, const Lanes<std::int64_t>& idx,
                    LaneMask active) {
    if constexpr (detail::fault_flippable_v<T>) {
      if (fault_overflow_here()) {
        // Forced saturation dominates any bit flip on the same element.
        for (int l = 0; l < kWarpSize; ++l) {
          if (active >> l & 1) {
            detail::fault_saturate(mem[static_cast<std::size_t>(idx[l])]);
            ++fault_overflows_;
          }
        }
        return;
      }
      if (faults_->flip_threshold == 0) return;
      const std::uint64_t key = fault_access_key();
      for (int l = 0; l < kWarpSize; ++l) {
        if (!(active >> l & 1)) continue;
        const std::uint64_t h =
            detail::fault_mix(key ^ static_cast<std::uint64_t>(l));
        if (h < faults_->flip_threshold) {
          detail::fault_flip(mem[static_cast<std::size_t>(idx[l])],
                             detail::fault_mix(h));
          ++fault_flips_;
        }
      }
    } else {
      (void)mem;
      (void)idx;
      (void)active;
    }
  }

  template <class T>
  void fault_stored_contiguous(std::span<T> mem, std::int64_t base,
                               int count) {
    if constexpr (detail::fault_flippable_v<T>) {
      if (fault_overflow_here()) {
        for (int l = 0; l < count; ++l) {
          detail::fault_saturate(mem[static_cast<std::size_t>(base + l)]);
          ++fault_overflows_;
        }
        return;
      }
      if (faults_->flip_threshold == 0 || count <= 0) return;
      const std::uint64_t key = fault_access_key();
      for (int l = 0; l < count; ++l) {
        const std::uint64_t h =
            detail::fault_mix(key ^ static_cast<std::uint64_t>(l));
        if (h < faults_->flip_threshold) {
          detail::fault_flip(mem[static_cast<std::size_t>(base + l)],
                             detail::fault_mix(h));
          ++fault_flips_;
        }
      }
    } else {
      (void)mem;
      (void)base;
      (void)count;
    }
  }

  bool fault_overflow_here() const noexcept {
    return faults_->overflow &&
           (faults_->overflow_cta < 0 || faults_->overflow_cta == cta_id_);
  }

  void flush_faults() noexcept {
    if (fault_flips_ != 0) {
      faults_->flips.fetch_add(fault_flips_, std::memory_order_relaxed);
      fault_flips_ = 0;
    }
    if (fault_overflows_ != 0) {
      faults_->overflows.fetch_add(fault_overflows_,
                                   std::memory_order_relaxed);
      fault_overflows_ = 0;
    }
  }

  // ----- sanitizer hooks (see simt/sanitizer.hpp) --------------------------
  // Reached only behind the `san_ != nullptr` check at each access site, so
  // a launch without a sanitizer pays one pointer compare per access.
  // Memcheck masks faulty lanes out (the access is skipped, like
  // compute-sanitizer's error-and-continue), so a planted bug cannot turn
  // into host UB; racecheck records plain-store byte intervals the
  // calling thread analyzes after the launch.

  template <class T>
  LaneMask san_check_lanes(const void* base, std::size_t elems,
                           const Lanes<std::int64_t>& idx, LaneMask active,
                           bool is_load) {
    if (!san_->armed(kSanMem)) return active;
    for (int l = 0; l < kWarpSize; ++l) {
      if (!(active >> l & 1)) continue;
      const std::int64_t i = idx[static_cast<std::size_t>(l)];
      if (i < 0 || static_cast<std::size_t>(i) >= elems) {
        san_->oob(base, elems, sizeof(T), i, l, is_load);
        active &= ~(LaneMask{1} << l);
      } else if constexpr (detail::san_align_v<T> != 0) {
        const auto addr = reinterpret_cast<std::uintptr_t>(
            static_cast<const T*>(base) + i);
        if (addr % detail::san_align_v<T> != 0) {
          san_->misaligned(static_cast<const T*>(base) + i, sizeof(T), l,
                           is_load);
          active &= ~(LaneMask{1} << l);
        }
      }
    }
    return active;
  }

  template <class T>
  int san_check_range(const void* base, std::size_t elems, std::int64_t first,
                      int count, bool is_load) {
    if (!san_->armed(kSanMem) || count <= 0) return count;
    if (first < 0) {
      san_->oob(base, elems, sizeof(T), first, 0, is_load);
      return 0;
    }
    if (static_cast<std::size_t>(first) + static_cast<std::size_t>(count) >
        elems) {
      const auto ok = static_cast<std::size_t>(first) < elems
                          ? static_cast<int>(elems -
                                             static_cast<std::size_t>(first))
                          : 0;
      san_->oob(base, elems, sizeof(T), first + ok, ok, is_load);
      count = ok;
    }
    if constexpr (detail::san_align_v<T> != 0) {
      const auto addr = reinterpret_cast<std::uintptr_t>(
          static_cast<const T*>(base) + first);
      if (count > 0 && addr % detail::san_align_v<T> != 0) {
        san_->misaligned(static_cast<const T*>(base) + first, sizeof(T), 0,
                         is_load);
        return 0;
      }
    }
    return count;
  }

  template <class T>
  void san_note_scatter(const void* base, const Lanes<std::int64_t>& idx,
                        LaneMask active) {
    if (!san_->armed(kSanRace)) return;
    const auto b = reinterpret_cast<std::uint64_t>(base);
    int l = 0;
    while (l < kWarpSize) {
      if (!(active >> l & 1)) {
        ++l;
        continue;
      }
      const std::int64_t first = idx[static_cast<std::size_t>(l)];
      std::int64_t last = first;
      int r = l + 1;
      while (r < kWarpSize && (active >> r & 1) &&
             idx[static_cast<std::size_t>(r)] == last + 1) {
        last = idx[static_cast<std::size_t>(r)];
        ++r;
      }
      san_->plain_store(b + static_cast<std::uint64_t>(first) * sizeof(T),
                        b + static_cast<std::uint64_t>(last + 1) * sizeof(T));
      l = r;
    }
  }

  template <class T>
  void san_note_store_range(const void* base, std::int64_t first, int count) {
    if (!san_->armed(kSanRace) || count <= 0) return;
    const auto b = reinterpret_cast<std::uint64_t>(base);
    san_->plain_store(
        b + static_cast<std::uint64_t>(first) * sizeof(T),
        b + (static_cast<std::uint64_t>(first) +
             static_cast<std::uint64_t>(count)) *
                sizeof(T));
  }

  // ----- hgprof store sampling (see obs/prof/prof.hpp) --------------------
  // Reached only behind the `prof_ != nullptr` check at each store site, and
  // only armed when the numerics analyzer is on. Samples what actually
  // landed in memory — after the functional write and any injected fault —
  // into a warp-local histogram: an overflow observed here is the paper's
  // Fig. 1c event at the instruction that produced it. Read-only, so armed
  // outputs stay byte-identical to disarmed ones.

  template <class T>
  void prof_stored(std::span<T> mem, const Lanes<std::int64_t>& idx,
                   LaneMask active) noexcept {
    for (int l = 0; l < kWarpSize; ++l) {
      if (active >> l & 1) {
        wprof_.note(mem[static_cast<std::size_t>(idx[l])]);
      }
    }
  }

  template <class T>
  void prof_stored_contiguous(std::span<T> mem, std::int64_t base,
                              int count) noexcept {
    for (int l = 0; l < count; ++l) {
      wprof_.note(mem[static_cast<std::size_t>(base + l)]);
    }
  }

  template <class T>
  void account_access(const Lanes<std::int64_t>& idx, LaneMask active,
                      bool is_load) {
    // Dispatched so the vector path's sorted-run dedup kicks in; the scalar
    // entry IS accounting::access_counts, and the AVX2 entry is exact for
    // every pattern (sorted closed form, scalar fallback otherwise), so the
    // charges cannot diverge between paths.
    const auto c = simd::ops().access_counts(idx, active, sizeof(T),
                                             spec_.sector_bytes);
    finish_access<T>(c.sectors, c.unique_elems, is_load);
  }

  template <class T>
  void account_contiguous(std::int64_t base, int count, bool is_load) {
    if (count <= 0) return;
    const std::int64_t first =
        base * static_cast<std::int64_t>(sizeof(T)) / spec_.sector_bytes;
    const std::int64_t last =
        ((base + count) * static_cast<std::int64_t>(sizeof(T)) - 1) /
        spec_.sector_bytes;
    finish_access<T>(static_cast<int>(last - first + 1), count, is_load);
  }

  template <class T>
  void finish_access(int sectors, int active_count, bool is_load) {
    acc_.sectors += static_cast<std::uint64_t>(sectors);
    acc_.bytes_moved += static_cast<std::uint64_t>(sectors) *
                        static_cast<std::uint64_t>(spec_.sector_bytes);
    acc_.useful_bytes +=
        static_cast<std::uint64_t>(active_count) * sizeof(T);
    if (is_load) {
      acc_.ld_instrs += 1;
      ++pending_loads_;
      // Amortized MSHR pressure per load instruction (Sec. 5.1.1 effect:
      // fewer, wider loads stall less for the same bytes), reduced by the
      // kernel's declared load ILP.
      stall(spec_.ld_pipeline_stall / load_ilp_);
    } else {
      acc_.st_instrs += 1;
    }
    issue(spec_.ld_issue_cycles);
    memq(sectors * spec_.sector_cycles);
  }

  void account_atomic(const Lanes<std::int64_t>& idx, LaneMask active,
                      int word_elems, bool half_cost, int contention) {
    // Serialization depth: size of the largest group of lanes whose target
    // indices share one 32-bit word; groups: distinct words touched.
    const auto c = accounting::atomic_counts(idx, active, word_elems);
    if (c.active == 0) return;
    const double factor = half_cost ? spec_.atomic_half_penalty : 1.0;
    acc_.atomic_instrs += 1;
    acc_.atomic_serialized +=
        static_cast<std::uint64_t>(c.depth - 1 + (contention - 1));
    // The atomic itself occupies one issue slot; in-warp serialization
    // (depth) and cross-agent CAS retries (contention) serialize at the
    // memory system — a device-wide resource that concurrent CTAs cannot
    // hide (they are the contention) — so the excess lands in the memory
    // bucket.
    issue(spec_.atomic_cycles);
    const double wait =
        spec_.atomic_cycles * factor * c.depth * std::max(1, contention) -
        spec_.atomic_cycles;
    memq(wait);
    acc_.atomic_wait_cycles += wait;
    // Atomics also move memory: one sector per distinct word group, at RMW
    // cost (count both directions).
    acc_.sectors += static_cast<std::uint64_t>(c.groups);
    acc_.bytes_moved += static_cast<std::uint64_t>(c.groups) *
                        static_cast<std::uint64_t>(spec_.sector_bytes);
  }

  const DeviceSpec& spec_;
  KernelStats& ks_;
  int warp_in_cta_ = 0;
  int cta_id_ = 0;
  double issue_ = 0;
  double mem_ = 0;
  double stall_ = 0;
  double load_ilp_ = 1.0;
  int pending_loads_ = 0;
  detail::LaunchFaultState* faults_ = nullptr;
  detail::CtaSan* san_ = nullptr;
  obs::prof::detail::LaunchProfState* prof_ = nullptr;
  // Warp-local store sampler; flushed once in finish(). Trivially
  // destructible, preserving the inline-warp-storage contract.
  obs::prof::WarpProf wprof_;
  std::uint64_t fault_ctr_ = 0;
  std::uint64_t fault_flips_ = 0;
  std::uint64_t fault_overflows_ = 0;
  WarpCounters acc_;
};

}  // namespace hg::simt
