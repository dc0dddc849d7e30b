// The trainer's tensor buffer pool (tensor/pool.hpp) and the fills it made
// removable: unit tests of the pool, ops that write every element of an
// unfilled output, and two training properties, that epochs after the first
// miss the pool nowhere and that every dropped fill was dead (a run whose
// every unfilled allocation holds NaN bits trains identically).
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "dense_test_util.hpp"
#include "graph/datasets.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/executor.hpp"
#include "tensor/dense_ops.hpp"
#include "tensor/pool.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace hg {
namespace {

using dense_test::special_tensor;
using dense_test::storage_bytes;

const void* storage(const MTensor& t) { return storage_bytes(t).data(); }

// A tensor of exactly `bytes` (a multiple of 64) whose every byte is `fill`.
MTensor block_of(std::size_t bytes, unsigned char fill) {
  MTensor t = MTensor::uninit(Dtype::kF16, 1,
                              static_cast<std::int64_t>(bytes / 2));
  std::memset(static_cast<void*>(t.h().data()), fill, bytes);
  return t;
}

TEST(TensorPool, TakesAFreeBlockOfTheSameRoundedSize) {
  TensorPool pool;
  const TensorPoolScope scope(pool);
  const void* first = nullptr;
  {
    const MTensor a = MTensor::f32(10, 10);  // 400 bytes, rounded to 448
    first = storage(a);
  }
  const MTensor b = MTensor::uninit(Dtype::kF16, 1, 224);  // 448 bytes
  EXPECT_EQ(storage(b), first);
  const MTensor c = MTensor::f32(1, 1);  // 64 bytes: another size
  EXPECT_NE(storage(c), first);
  EXPECT_EQ(pool.misses(), 2u);
  const auto st = pool.stats();
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[0].bytes, 64u);
  EXPECT_EQ(st[1].bytes, 448u);
  EXPECT_EQ(st[1].takes, 2u);
  EXPECT_EQ(st[1].misses, 1u);
  EXPECT_EQ(st[1].free, 0u);
}

TEST(TensorPool, HandsOutFreeBlocksInTheOrderTheyCameBack) {
  TensorPool pool;
  const TensorPoolScope scope(pool);
  std::optional<MTensor> a(MTensor::f32(16, 16));
  std::optional<MTensor> b(MTensor::f32(16, 16));
  std::optional<MTensor> c(MTensor::f32(16, 16));
  const void* pa = storage(*a);
  const void* pb = storage(*b);
  const void* pc = storage(*c);
  b.reset();
  c.reset();
  a.reset();
  const MTensor x = MTensor::f32(16, 16);
  const MTensor y = MTensor::f32(16, 16);
  const MTensor z = MTensor::f32(16, 16);
  EXPECT_EQ(storage(x), pb);
  EXPECT_EQ(storage(y), pc);
  EXPECT_EQ(storage(z), pa);
  EXPECT_EQ(pool.misses(), 3u);
}

TEST(TensorPool, UninitKeepsTheBlockBytesAndZerosFills) {
  TensorPool pool;
  const TensorPoolScope scope(pool);
  { const MTensor seed = block_of(256, 0xFF); }
  const MTensor u = MTensor::uninit(Dtype::kF32, 8, 8);
  for (const float v : u.f()) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(v), 0xFFFFFFFFu);
  }
  { const MTensor drop = u; }  // the copy's block goes back to the pool
  for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
    // 256 bytes: each takes the copy's 0xFF block.
    const MTensor z =
        MTensor::zeros(dt, 8, 32 / static_cast<int>(dtype_bytes(dt)));
    for (const std::byte b : storage_bytes(z)) {
      EXPECT_EQ(b, std::byte{0});
    }
  }
}

// A caller's pool serves the scopes opened inside it (nn::train's).
TEST(TensorPool, AnInnerScopeLeavesTheOuterPoolBound) {
  TensorPool outer;
  const TensorPoolScope scope(outer);
  TensorPool inner;
  {
    const TensorPoolScope nested(inner);
    const MTensor t = MTensor::f32(4, 16);
  }
  EXPECT_EQ(outer.misses(), 1u);
  EXPECT_TRUE(inner.stats().empty());
  ASSERT_EQ(outer.stats().size(), 1u);
  EXPECT_EQ(outer.stats()[0].free, 1u);
}

// A tensor taken from a pool may outlive it; it then goes back to the heap,
// and nothing is pooled once the scope has closed.
TEST(TensorPool, TensorsOutliveTheirPool) {
  MTensor kept;
  {
    TensorPool pool;
    const TensorPoolScope scope(pool);
    kept = MTensor::f32(32, 32);
    { const MTensor dropped = MTensor::f32(8, 8); }
  }
  kept.set(31, 31, 2.5f);
  EXPECT_EQ(kept.get(31, 31), 2.5f);
  TensorPool unbound;
  { const MTensor t = MTensor::f32(8, 8); }
  EXPECT_TRUE(unbound.stats().empty());
}

// Under AddressSanitizer a free block is poisoned until it is handed out
// again, so a read through a dropped tensor's storage is still reported.
TEST(TensorPool, FreeBlocksArePoisonedUnderAddressSanitizer) {
#if defined(__SANITIZE_ADDRESS__)
  TensorPool pool;
  const TensorPoolScope scope(pool);
  const void* p = nullptr;
  {
    const MTensor t = MTensor::f32(16, 16);
    p = storage(t);
    EXPECT_FALSE(__asan_address_is_poisoned(p));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(static_cast<const char*>(p) + 1023));
  const MTensor again = MTensor::f32(16, 16);
  ASSERT_EQ(storage(again), p);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_FALSE(
      __asan_address_is_poisoned(static_cast<const char*>(p) + 1023));
#else
  GTEST_SKIP() << "not an AddressSanitizer build";
#endif
}

// Runs op() with every block it takes of the given sizes holding `fill`
// bytes; returns what op returned.
template <class Op>
auto with_garbage(const std::vector<std::size_t>& sizes, unsigned char fill,
                  Op&& op) {
  TensorPool pool;
  const TensorPoolScope scope(pool);
  {
    std::vector<MTensor> seeds;
    for (const std::size_t s : sizes) seeds.push_back(block_of(s, fill));
  }
  return op();
}

// softmax_xent leaves dlogits unfilled and writes every element itself:
// the rows outside the loss and the padded columns get +0.
TEST(TensorPool, SoftmaxXentWritesEveryGradientElement) {
  std::mt19937 rng(0x9001u);
  constexpr int kRows = 37, kCols = 16, kValid = 13;
  std::vector<int> labels(kRows);
  std::vector<std::uint8_t> mask(kRows);
  for (int r = 0; r < kRows; ++r) {
    labels[static_cast<std::size_t>(r)] = static_cast<int>(rng() % kValid);
    mask[static_cast<std::size_t>(r)] = r % 3 == 0 ? 0 : 1;
  }
  for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
    const MTensor logits = special_tensor(dt, kRows, kCols, rng, true);
    const std::size_t bytes =
        TensorPool::rounded(static_cast<std::size_t>(kRows * kCols) *
                            dtype_bytes(dt));
    const auto grad = [&](unsigned char fill) {
      return with_garbage({bytes}, fill, [&] {
        MTensor d;
        softmax_xent(logits, labels, mask, true, kValid, 1024.0f, &d,
                     nullptr);
        return d;
      });
    };
    const MTensor a = grad(0x00);
    const MTensor b = grad(0xFF);
    dense_test::expect_same_bits(a, b, std::string(dtype_name(dt)));
    for (int r = 0; r < kRows; ++r) {
      for (int c = 0; c < kCols; ++c) {
        if (mask[static_cast<std::size_t>(r)] == 0 || c >= kValid) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(a.get(r, c)), 0u)
              << dtype_name(dt) << " r " << r << " c " << c;
        }
      }
    }
  }
}

// relu_forward writes every mask byte in every dtype, so a mask reused
// from another tensor (larger, or holding other bytes) gives the same mask.
TEST(TensorPool, ReluForwardWritesEveryMaskByte) {
  std::mt19937 rng(0x9002u);
  dense_test::for_each_path([&](simt::simd::Path) {
    for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
      const MTensor in = special_tensor(dt, 33, 21, rng, false);
      MTensor x0 = in;
      std::vector<std::uint8_t> fresh;
      relu_forward(x0, fresh, nullptr);
      for (const std::size_t prior : {in.numel(), in.numel() + 100}) {
        MTensor x1 = in;
        std::vector<std::uint8_t> reused(prior, 0xAB);
        relu_forward(x1, reused, nullptr);
        EXPECT_EQ(reused, fresh) << dtype_name(dt);
        dense_test::expect_same_bits(x1, x0, std::string(dtype_name(dt)));
      }
    }
  });
}

// The per-element loop masked_accuracy ran before it converted each row
// once.
double accuracy_per_element(const MTensor& logits, std::span<const int> labels,
                            std::span<const std::uint8_t> mask,
                            std::uint8_t expect, int valid_classes) {
  double correct = 0, count = 0;
  for (std::int64_t r = 0; r < logits.rows(); ++r) {
    if (mask[static_cast<std::size_t>(r)] != expect) continue;
    count += 1;
    int argmax = 0;
    for (int j = 0; j < valid_classes; ++j) {
      if (logits.get(r, j) > logits.get(r, argmax)) argmax = j;
    }
    correct += argmax == labels[static_cast<std::size_t>(r)];
  }
  return count > 0 ? correct / count : 0.0;
}

TEST(MaskedAccuracy, MatchesThePerElementLoop) {
  std::mt19937 rng(0x9003u);
  constexpr int kRows = 400, kCols = 16, kValid = 11;
  std::vector<int> labels(kRows);
  std::vector<std::uint8_t> mask(kRows);
  for (int r = 0; r < kRows; ++r) {
    labels[static_cast<std::size_t>(r)] = static_cast<int>(rng() % 3);
    mask[static_cast<std::size_t>(r)] = static_cast<std::uint8_t>(rng() % 2);
  }
  for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
    // NaN, +-Inf, signed zeros and subnormals, plus rows of ties: every
    // tenth row repeats one value, every seventh has a NaN in column 0.
    MTensor logits = special_tensor(dt, kRows, kCols, rng, false);
    for (int r = 0; r < kRows; r += 10) {
      const float v = logits.get(r, 1);
      for (int c = 0; c < kCols; ++c) logits.set(r, c, v);
    }
    for (int r = 3; r < kRows; r += 7) logits.set(r, 0, NAN);
    for (int r = 5; r < kRows; r += 13) {
      logits.set(r, 2, INFINITY);
      logits.set(r, 4, INFINITY);
    }
    for (const std::uint8_t expect : {0, 1}) {
      for (const int valid : {0, 1, kValid, kCols}) {
        const double ref =
            accuracy_per_element(logits, labels, mask, expect, valid);
        const double got = masked_accuracy(logits, labels, mask, expect, valid);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(ref))
            << dtype_name(dt) << " expect " << int{expect} << " valid "
            << valid;
      }
    }
  }
}

// --- training ----------------------------------------------------------------

struct ModelCase {
  nn::ModelKind kind;
  nn::SystemMode mode;
  std::optional<Dtype> dtype;
};

std::string case_name(const ModelCase& c, bool traced) {
  return std::string(nn::model_name(c.kind)) + "/" + nn::mode_name(c.mode) +
         (c.dtype ? "/" + std::string(dtype_name(*c.dtype)) : "") +
         (traced ? " traced" : " untraced");
}

// One nn::train call on `stream` with metrics (and, traced, the tracer and
// every epoch profiled) armed; the run's artifacts.
struct Artifacts {
  nn::TrainResult res;
  std::string metrics, trace;
};

Artifacts train_once(const Dataset& d, const ModelCase& c, bool traced, int epochs,
               simt::Stream& stream) {
  obs::registry().reset();
  obs::registry().set_enabled(true);
  obs::tracer().reset();
  obs::tracer().set_enabled(traced);
  nn::TrainConfig cfg = nn::default_config(c.kind);
  cfg.epochs = epochs;
  cfg.dtype = c.dtype;
  cfg.trace = traced;
  cfg.stream = &stream;
  Artifacts out;
  out.res = nn::train(c.kind, c.mode, d, cfg);
  out.metrics = obs::registry().to_json().dump();
  if (traced) out.trace = obs::tracer().chrome_trace_json().dump();
  obs::registry().set_enabled(false);
  obs::registry().reset();
  obs::tracer().set_enabled(false);
  obs::tracer().reset();
  return out;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

// The op stream of an epoch does not depend on the epoch, so after epoch 0
// every request finds a free block: a 3-epoch run misses the pool exactly
// as often as a 1-epoch run, in every model and mode, traced (every epoch
// profiled) and untraced.
TEST(TensorPoolTraining, NoMissAfterEpochZero) {
  const Dataset d = make_dataset(DatasetId::kCora);
  simt::Stream& stream = simt::default_stream();
  for (const nn::ModelKind kind :
       {nn::ModelKind::kGcn, nn::ModelKind::kGat, nn::ModelKind::kGin}) {
    for (const nn::SystemMode mode :
         {nn::SystemMode::kDglFloat, nn::SystemMode::kDglHalf,
          nn::SystemMode::kHalfGnn}) {
      for (const bool traced : {false, true}) {
        const ModelCase c{kind, mode, std::nullopt};
        std::uint64_t misses[2] = {};
        for (const int epochs : {1, 3}) {
          TensorPool pool;
          const TensorPoolScope scope(pool);
          (void)train_once(d, c, traced, epochs, stream);
          misses[epochs == 1 ? 0 : 1] = pool.misses();
        }
        EXPECT_GT(misses[0], 0u) << case_name(c, traced);
        EXPECT_EQ(misses[1], misses[0])
            << case_name(c, traced) << ": epochs 1-2 missed the pool";
      }
    }
  }
}

// Refills the bound pool so that it holds, per size, the blocks a run took
// of that size (`took`, the pool's stats after the run), every byte `fill`.
// Free blocks are handed out in the order they came back, so a rerun of the
// same op stream takes only these blocks, even where the first run reused
// one.
void refill(const std::vector<TensorPool::SizeStats>& took,
            unsigned char fill) {
  std::vector<MTensor> held;
  for (const TensorPool::SizeStats& s : took) {
    for (std::uint64_t i = 0; i < s.takes; ++i) {
      held.push_back(block_of(s.bytes, fill));
    }
  }
}

// Every fill this pool made removable is dead. A run as is, a run whose
// every unfilled allocation holds +0 (as if each fill were kept) and one
// whose every unfilled allocation holds NaN bits (0xFF bytes: a NaN in
// f32, f16 and bf16) give the same losses, accuracies, metrics and trace.
// Traced runs profile every epoch (the per-access kernels); untraced ones
// take the fused train paths. spmm_halfgnn's staging values start as the
// same bytes.
TEST(TensorPoolTraining, NanPoisonedAllocationsTrainIdentically) {
  const ModelCase cases[] = {
      {nn::ModelKind::kGcn, nn::SystemMode::kDglFloat, std::nullopt},
      {nn::ModelKind::kGcn, nn::SystemMode::kDglHalf, std::nullopt},
      {nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, std::nullopt},
      {nn::ModelKind::kGcn, nn::SystemMode::kHalfGnn, Dtype::kBf16},
      {nn::ModelKind::kGat, nn::SystemMode::kDglFloat, std::nullopt},
      {nn::ModelKind::kGat, nn::SystemMode::kDglHalf, std::nullopt},
      {nn::ModelKind::kGat, nn::SystemMode::kHalfGnn, std::nullopt},
      {nn::ModelKind::kGat, nn::SystemMode::kHalfGnn, Dtype::kBf16},
      {nn::ModelKind::kGin, nn::SystemMode::kDglFloat, std::nullopt},
      {nn::ModelKind::kGin, nn::SystemMode::kDglHalf, std::nullopt},
      {nn::ModelKind::kGin, nn::SystemMode::kHalfGnn, std::nullopt},
      {nn::ModelKind::kGin, nn::SystemMode::kHalfGnn, Dtype::kBf16},
  };
  for (const auto& [id, epochs] :
       {std::pair{DatasetId::kCora, 3}, std::pair{DatasetId::kReddit, 2}}) {
    const Dataset d = make_dataset(id);
    for (const ModelCase& c : cases) {
      for (const bool traced : {true, false}) {
        simt::Device dev(simt::a100_spec(), 2);
        simt::Stream stream(dev);
        TensorPool pool;
        const TensorPoolScope scope(pool);
        const Artifacts ref = train_once(d, c, traced, epochs, stream);
        const std::vector<TensorPool::SizeStats> took = pool.stats();
        for (const unsigned char fill : {0x00, 0xFF}) {
          const std::string what = d.name + " " + case_name(c, traced) +
                                   " fill " + std::to_string(fill);
          refill(took, fill);
          for (int slot = 0; slot < simt::Device::kKernelScratchSlots;
               ++slot) {
            const auto s = dev.kernel_scratch<std::byte>(slot, 1 << 20);
            std::memset(s.data(), fill, s.size());
          }
          const std::uint64_t seeded = pool.misses();
          const Artifacts got = train_once(d, c, traced, epochs, stream);
          EXPECT_EQ(pool.misses(), seeded)
              << what << ": the run took a block nobody seeded";
          EXPECT_EQ(bits_of(got.res.losses), bits_of(ref.res.losses)) << what;
          EXPECT_EQ(bits_of(got.res.test_accs), bits_of(ref.res.test_accs))
              << what;
          EXPECT_EQ(got.metrics, ref.metrics) << what;
          EXPECT_EQ(got.trace, ref.trace) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hg
