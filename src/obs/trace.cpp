#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "ckpt/serial.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"

namespace hg::obs {

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  clock_ms_ = 0;
  next_token_ = 1;
  next_seq_ = 0;
  stack_.clear();
  done_.clear();
}

double Tracer::now_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return clock_ms_;
}

void Tracer::advance_ms(double ms) {
  if (!enabled() || ms <= 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  clock_ms_ += ms;
}

std::uint64_t Tracer::open_span(std::string name, std::string cat) {
  std::lock_guard<std::mutex> lk(mu_);
  OpenSpan s;
  s.token = next_token_++;
  s.name = std::move(name);
  s.cat = std::move(cat);
  s.start_ms = clock_ms_;
  s.seq = next_seq_++;
  stack_.push_back(std::move(s));
  return stack_.back().token;
}

void Tracer::span_arg(std::uint64_t token, TraceArg arg) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->token == token) {
      it->args.push_back(std::move(arg));
      return;
    }
  }
}

void Tracer::close_top_locked() {
  OpenSpan s = std::move(stack_.back());
  stack_.pop_back();
  Event e;
  e.name = std::move(s.name);
  e.cat = std::move(s.cat);
  e.ts_ms = s.start_ms;
  e.dur_ms = clock_ms_ - s.start_ms;
  e.seq = s.seq;
  e.args = std::move(s.args);
  done_.push_back(std::move(e));
}

void Tracer::close_span(std::uint64_t token) {
  std::lock_guard<std::mutex> lk(mu_);
  // Close children that were leaked above this span first, then the span.
  while (!stack_.empty()) {
    const bool is_target = stack_.back().token == token;
    close_top_locked();
    if (is_target) return;
  }
}

void Tracer::instant(std::string name, std::string cat,
                     std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  Event e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ts_ms = clock_ms_;
  e.instant = true;
  e.seq = next_seq_++;
  e.args.assign(args.begin(), args.end());
  done_.push_back(std::move(e));
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return done_.size();
}

std::uint64_t Tracer::top_open_token() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stack_.empty() ? 0 : stack_.back().token;
}

std::string Tracer::save_state() const {
  std::lock_guard<std::mutex> lk(mu_);
  ckpt::Writer w;
  const_cast<Tracer*>(this)->fields(w);  // the Writer only reads
  return w.take();
}

void Tracer::load_state(const std::string& blob) {
  ckpt::Reader r(blob);
  std::lock_guard<std::mutex> lk(mu_);
  fields(r);
  if (!r.done()) throw std::runtime_error("ckpt: trailing bytes after image");
}

Json Tracer::chrome_trace_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Chrome expects events sorted by timestamp; put longer (enclosing)
  // spans first at equal timestamps so nesting renders correctly.
  std::vector<const Event*> order;
  order.reserve(done_.size());
  for (const auto& e : done_) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const Event* a, const Event* b) {
              if (a->ts_ms != b->ts_ms) return a->ts_ms < b->ts_ms;
              if (a->dur_ms != b->dur_ms) return a->dur_ms > b->dur_ms;
              return a->seq < b->seq;
            });

  Json events = Json::array();
  {
    Json meta = Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", 1);
    Json margs = Json::object();
    margs.set("name", "halfgnn (modeled A100 timeline)");
    meta.set("args", std::move(margs));
    events.push(std::move(meta));
  }
  for (const Event* e : order) {
    Json ev = Json::object();
    ev.set("name", e->name);
    ev.set("cat", e->cat);
    ev.set("ph", e->instant ? "i" : "X");
    ev.set("ts", e->ts_ms * 1000.0);  // microseconds
    if (!e->instant) ev.set("dur", e->dur_ms * 1000.0);
    ev.set("pid", 1);
    ev.set("tid", 1);
    if (e->instant) ev.set("s", "t");
    if (!e->args.empty()) {
      Json args = Json::object();
      for (const auto& a : e->args) {
        if (a.is_num) {
          args.set(a.key, a.num);
        } else {
          args.set(a.key, a.str);
        }
      }
      ev.set("args", std::move(args));
    }
    events.push(std::move(ev));
  }

  Json doc = Json::object();
  doc.set("displayTimeUnit", "ms");
  Json other = Json::object();
  other.set("schema", "halfgnn-trace-v1");
  other.set("clock", "modeled-simt");
  other.set("unit", "us of modeled device time");
  doc.set("otherData", std::move(other));
  doc.set("traceEvents", std::move(events));
  return doc;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json().dump(1) << '\n';
  return static_cast<bool>(f);
}

std::string Tracer::collapsed_stacks() const {
  // The export sort already places parents before children, so the folded
  // view is derived from the Chrome trace rather than re-walking state.
  return prof::collapsed_stacks_from_trace(chrome_trace_json());
}

bool Tracer::write_collapsed(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << collapsed_stacks();
  return static_cast<bool>(f);
}

void trace_complete(std::string name, std::string cat, double dur_ms,
                    std::initializer_list<TraceArg> args) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  const std::uint64_t tok = t.open_span(std::move(name), std::move(cat));
  for (const auto& a : args) t.span_arg(tok, a);
  t.advance_ms(dur_ms);
  t.close_span(tok);
}

void dispatch_decision(const std::string& op, const std::string& kernel,
                       const std::string& why) {
  Tracer& t = tracer();
  if (t.enabled()) {
    t.instant("dispatch:" + op, "dispatch",
              {{"op", op}, {"kernel", kernel}, {"why", why}});
  }
  Registry& r = registry();
  if (r.enabled()) r.add_counter("dispatch." + op + "." + kernel, 1.0);
}

EnvConfig init_from_env() {
  EnvConfig cfg;
  if (const char* p = std::getenv("HALFGNN_TRACE"); p != nullptr && *p) {
    cfg.trace_path = p;
    tracer().set_enabled(true);
  }
  if (const char* p = std::getenv("HALFGNN_METRICS"); p != nullptr && *p) {
    cfg.metrics_path = p;
    registry().set_enabled(true);
  }
  if (const char* p = std::getenv("HALFGNN_FLAME"); p != nullptr && *p) {
    cfg.flame_path = p;
    tracer().set_enabled(true);  // folded stacks are derived from spans
  }
  return cfg;
}

WriteStatus write_configured_outputs(const EnvConfig& cfg) {
  WriteStatus st;
  if (!cfg.trace_path.empty()) {
    st.trace_ok = tracer().write_chrome_trace(cfg.trace_path);
  }
  if (!cfg.metrics_path.empty()) {
    st.metrics_ok = registry().write_json(cfg.metrics_path);
  }
  if (!cfg.flame_path.empty()) {
    st.flame_ok = tracer().write_collapsed(cfg.flame_path);
  }
  return st;
}

}  // namespace hg::obs
