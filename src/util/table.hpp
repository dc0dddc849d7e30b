// Plain-text table rendering for bench binaries: every figure/table bench
// prints its rows in the same aligned format the paper's plots report.
#pragma once

#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

namespace hg {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> w(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < w.size(); ++c)
        w[c] = std::max(w[c], r[c].size());
    auto line = [&] {
      os << '+';
      for (auto cw : w) os << std::string(cw + 2, '-') << '+';
      os << '\n';
    };
    auto emit = [&](const std::vector<std::string>& r) {
      os << '|';
      for (std::size_t c = 0; c < w.size(); ++c) {
        const std::string& s = c < r.size() ? r[c] : std::string{};
        os << ' ' << s << std::string(w[c] - s.size() + 1, ' ') << '|';
      }
      os << '\n';
    };
    line();
    emit(headers_);
    line();
    for (const auto& r : rows_) emit(r);
    line();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(prec) << v;
  return ss.str();
}

inline std::string fmt_times(double v, int prec = 2) {
  return fmt(v, prec) + "x";
}

inline std::string fmt_pct(double v, int prec = 1) {
  return fmt(v * 100.0, prec) + "%";
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace hg
