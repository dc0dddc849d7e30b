// Durable, crash-safe checkpoint store.
//
// On-disk layout under one directory:
//
//   ckpt-<generation>.bin   header + CRC-checksummed TrainState payload
//   MANIFEST.json           generation index (schema halfgnn-ckpt-v1)
//
// Every file is written with the atomic protocol: serialize to
// `<name>.tmp`, flush, then std::filesystem::rename over the final name —
// a reader never observes a half-written file under its final name. The
// manifest is committed only *after* its data file, so a crash between the
// two leaves a valid (if unindexed) data file; load() falls back to a
// directory scan when the manifest is missing or stale, because every data
// file is self-validating through its own header checksum.
//
// load() walks generations newest → oldest and returns the first snapshot
// whose size and CRC check out and whose payload, obs images included,
// decodes. A torn or corrupted generation is counted, reported through
// `ckpt.load.rejected` plus a guard audit record, and skipped — recovery
// falls back to the previous good generation instead of failing the run.
//
// Fault hook: a `torncrash:epoch=N,at=BYTES` plan (from HALFGNN_FAULTS)
// makes write() simulate process death mid-checkpoint — it leaves a file
// truncated at BYTES (or a fully committed one when BYTES is past the end)
// and throws SimulatedCrash, which train_cli converts to exit code 42.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"

namespace hg::obs::prof {
class Profiler;
}  // namespace hg::obs::prof

namespace hg::ckpt {

// Thrown by Store::write when an armed torncrash plan fires; models the
// process dying mid-checkpoint. Never thrown without an armed plan.
class SimulatedCrash : public std::runtime_error {
 public:
  SimulatedCrash(int epoch, std::uint64_t at, const std::string& file)
      : std::runtime_error("ckpt: simulated crash at epoch " +
                          std::to_string(epoch) + " after " +
                          std::to_string(at) + " bytes of '" + file + "'"),
        epoch_(epoch),
        at_(at) {}
  int epoch() const noexcept { return epoch_; }
  std::uint64_t at() const noexcept { return at_; }

 private:
  int epoch_;
  std::uint64_t at_;
};

struct StoreConfig {
  std::string dir;
  // Generations retained on disk; older ones are pruned after each
  // successful commit. At least 2 so a corrupted newest generation always
  // has a fallback.
  int keep = 4;
  // Torn-write plan (from the torncrash fault clause); epoch < 0 disarms.
  int torn_epoch = -1;
  std::uint64_t torn_at = ~std::uint64_t{0};
};

struct LoadInfo {
  bool found = false;     // a good snapshot was recovered
  int generation = -1;    // generation it came from
  int rejected = 0;       // corrupted/torn generations skipped on the way
  TrainState state;
};

class Store {
 public:
  explicit Store(StoreConfig cfg);

  // Serializes `st` and commits it as the next generation. Throws
  // SimulatedCrash if the torn plan is armed for st.epoch (at most once
  // per Store), std::runtime_error on real I/O failure or when the
  // directory already holds generation INT_MAX - 1.
  void write(const TrainState& st);

  // Recovers the newest verifiable snapshot. Publishes ckpt.load.* metrics
  // and, for every rejected generation, a "ckpt_fallback" audit record on
  // `prof` (when non-null) — durable evidence of the recovery even though
  // the restored obs blobs will overwrite the live registry.
  LoadInfo load(obs::prof::Profiler* prof = nullptr);

  // Lifetime counters (this Store object, not the directory).
  int writes() const noexcept { return writes_; }
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  int next_generation() const noexcept { return next_gen_; }

  const StoreConfig& config() const noexcept { return cfg_; }

  static std::string data_file_name(int generation);

 private:
  void commit_manifest();
  void prune();

  StoreConfig cfg_;
  // Committed generations, oldest first: {generation, epoch, bytes, crc}.
  struct Entry {
    int gen = 0;
    int epoch = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
  };
  std::vector<Entry> entries_;
  int next_gen_ = 0;
  bool torn_fired_ = false;
  int writes_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace hg::ckpt
