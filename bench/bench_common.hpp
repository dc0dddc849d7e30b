// Shared infrastructure for the figure/table bench binaries.
//
// Environment knobs:
//   HALFGNN_QUICK=1          — restrict dataset sweeps to a small subset and
//                              cut training epochs (for smoke runs).
//   HALFGNN_EPOCHS=<n>       — override training epoch counts (a whole
//                              number >= 1; anything else throws).
//   HALFGNN_REPORT_DIR=<dir> — also write each bench's results as
//                              <dir>/BENCH_<name>.json (halfgnn-bench-v1).
#pragma once

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/datasets.hpp"
#include "kernels/api.hpp"
#include "obs/report.hpp"
#include "tensor/tensor.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace hg::bench {

inline bool quick_mode() {
  const char* q = std::getenv("HALFGNN_QUICK");
  return q != nullptr && q[0] == '1';
}

inline int epochs_override(int dflt) {
  if (const char* e = std::getenv("HALFGNN_EPOCHS"); e != nullptr && *e) {
    return util::require<int>(e, "HALFGNN_EPOCHS: ", 1);
  }
  return quick_mode() ? std::max(5, dflt / 10) : dflt;
}

// The perf-sweep datasets (paper: G1-G2 excluded from runtime results as
// too small to measure reliably; we follow the same rule and sweep G3-G16).
inline std::vector<DatasetId> perf_dataset_ids() {
  if (quick_mode()) {
    return {DatasetId::kKron, DatasetId::kReddit};
  }
  std::vector<DatasetId> ids;
  for (DatasetId id : all_dataset_ids()) {
    if (id == DatasetId::kCora || id == DatasetId::kCiteseer) continue;
    ids.push_back(id);
  }
  return ids;
}

inline std::vector<DatasetId> accuracy_dataset_ids() {
  if (quick_mode()) return {DatasetId::kCora, DatasetId::kReddit};
  return labeled_dataset_ids();
}

// Random half/float feature matrices for kernel-level benches.
inline AlignedVec<half_t> random_h16(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  AlignedVec<half_t> v(count);
  for (auto& x : v) x = half_t(rng.next_float() * 2 - 1);
  return v;
}
inline AlignedVec<float> random_f32(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  AlignedVec<float> v(count);
  for (auto& x : v) x = rng.next_float() * 2 - 1;
  return v;
}
inline AlignedVec<float> to_f32(std::span<const half_t> h) {
  AlignedVec<float> v(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) v[i] = h[i].to_float();
  return v;
}

inline std::string short_name(const Dataset& d) {
  return "G" + std::to_string(static_cast<int>(d.id)) + ":" + d.name;
}

// ---------------------------------------------------------------------------
// BenchTable: shared result printing + machine-readable report emission.
//
// Every figure bench used to hand-roll the same loop — a Table, one
// std::vector<double> per column for the AVERAGE row, fmt_* calls per cell.
// BenchTable owns that once: declare columns with a display format, feed raw
// numeric rows, and finish() prints the aligned table (AVERAGE appended) and,
// when HALFGNN_REPORT_DIR is set, writes the same data untouched by display
// rounding as <dir>/BENCH_<name>.json under the halfgnn-bench-v1 schema.
// ---------------------------------------------------------------------------

enum class CellFmt { kRaw, kPct, kTimes };

inline std::string format_cell(CellFmt f, double v) {
  if (std::isnan(v)) return "-";
  switch (f) {
    case CellFmt::kRaw: return fmt(v);
    case CellFmt::kPct: return fmt_pct(v);
    case CellFmt::kTimes: return fmt_times(v);
  }
  return fmt(v);
}

// Resolve $HALFGNN_REPORT_DIR/BENCH_<name>.json and write the report there.
// Returns the path written, or "" when the env var is unset.
inline std::string write_report(const obs::PerfReport& r) {
  const char* dir = std::getenv("HALFGNN_REPORT_DIR");
  if (dir == nullptr || dir[0] == '\0') return {};
  std::string path(dir);
  if (path.back() != '/') path += '/';
  path += r.default_filename();
  return r.write(path) ? path : std::string{};
}

class BenchTable {
 public:
  BenchTable(std::string name, std::string id_header,
             std::vector<std::pair<std::string, CellFmt>> cols)
      : report_(std::move(name)),
        cols_(std::move(cols)),
        sums_(cols_.size(), 0.0),
        counts_(cols_.size(), 0) {
    std::vector<std::string> headers{std::move(id_header)};
    std::vector<std::string> keys;
    for (const auto& c : cols_) {
      headers.push_back(c.first);
      keys.push_back(c.first);
    }
    table_ = Table(std::move(headers));
    report_.set_columns(std::move(keys));
    if (quick_mode()) report_.meta("quick", true);
  }

  // For extra meta / kernel counters beyond the plain rows.
  obs::PerfReport& report() { return report_; }

  void row(const std::string& id, const std::vector<double>& vals) {
    std::vector<std::string> cells{id};
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      const double v = i < vals.size() ? vals[i] :
                                         std::numeric_limits<double>::quiet_NaN();
      cells.push_back(format_cell(cols_[i].second, v));
      if (!std::isnan(v)) {
        sums_[i] += v;
        ++counts_[i];
      }
    }
    table_.row(std::move(cells));
    report_.add_row(id, vals);
  }

  // Print the table under `title` with a column-means AVERAGE row, record
  // those means in the report summary, and emit BENCH_<name>.json when
  // HALFGNN_REPORT_DIR is set. Returns the JSON path written ("" if none).
  std::string finish(const std::string& title) {
    std::vector<std::string> avg{"AVERAGE"};
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      if (counts_[i] == 0) {
        avg.push_back("");
        continue;
      }
      const double m = sums_[i] / static_cast<double>(counts_[i]);
      avg.push_back(format_cell(cols_[i].second, m));
      report_.summary("avg " + cols_[i].first, m);
    }
    table_.row(std::move(avg));
    if (!title.empty()) std::cout << title << '\n';
    table_.print();
    const std::string path = write_report(report_);
    if (!path.empty()) std::cout << "[report] wrote " << path << '\n';
    return path;
  }

 private:
  obs::PerfReport report_;
  std::vector<std::pair<std::string, CellFmt>> cols_;
  Table table_{std::vector<std::string>{}};
  std::vector<double> sums_;
  std::vector<int> counts_;
};

// Attach a profiled kernel's headline counters to a report's "kernels"
// section (mirrors what simt::publish_profile feeds the metrics registry,
// plus host_ms — the executor-measured wall time, which only ever appears
// in bench reports, never in the metrics/trace JSON).
inline void report_kernel(obs::PerfReport& r, const simt::KernelStats& ks) {
  r.add_kernel(ks.name,
               {{"time_ms", ks.time_ms},
                {"host_ms", ks.host_ms},
                {"device_cycles", static_cast<double>(ks.device_cycles)},
                {"bytes_moved", static_cast<double>(ks.bytes_moved)},
                {"useful_bytes", static_cast<double>(ks.useful_bytes)},
                {"sectors", static_cast<double>(ks.sectors)},
                {"bw_utilization", ks.bw_utilization},
                {"sm_utilization", ks.sm_utilization}});
}

}  // namespace hg::bench
