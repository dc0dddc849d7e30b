// halfgnn-check-v1 report emission + validation for hgcheck results.
#include <string>

#include "amp/amp.hpp"
#include "check/check.hpp"

namespace hg::check {

namespace {

obs::Json interval_json(const PredInterval& p) {
  obs::Json j = obs::Json::object();
  j.set("lo_exp", static_cast<double>(p.lo_exp));
  j.set("hi_exp", static_cast<double>(p.hi_exp));
  j.set("may_zero", p.may_zero);
  j.set("may_subnormal", p.may_subnormal);
  j.set("may_overflow", p.may_overflow);
  j.set("may_nan", p.may_nan);
  return j;
}

obs::Json interval_map_json(const std::map<std::string, PredInterval>& m) {
  obs::Json j = obs::Json::object();
  for (const auto& [name, p] : m) j.set(name, interval_json(p));
  return j;
}

}  // namespace

obs::Json report_json(const CheckResult& r) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", "halfgnn-check-v1");

  obs::Json cfg = obs::Json::object();
  cfg.set("model", nn::model_name(r.cfg.model));
  cfg.set("mode", nn::mode_name(r.cfg.mode));
  cfg.set("dtype", std::string(dtype_name(r.requested)));
  cfg.set("train_dtype", std::string(dtype_name(r.train_dtype)));
  cfg.set("loss_scaled", r.loss_scaled);
  cfg.set("epochs", static_cast<double>(r.cfg.epochs));
  cfg.set("hidden", static_cast<double>(r.cfg.hidden));
  cfg.set("lr", static_cast<double>(r.cfg.lr));
  cfg.set("seed", static_cast<double>(r.cfg.seed));
  cfg.set("use_envelope", r.cfg.use_envelope);
  cfg.set("act_slack", kActSlack);
  cfg.set("grad_slack", kGradSlack);
  cfg.set("adam_kappa", kAdamKappa);
  cfg.set("scaler_max", static_cast<double>(amp::kMaxScale));
  doc.set("config", std::move(cfg));

  obs::Json g = obs::Json::object();
  g.set("dataset", r.dataset);
  g.set("num_vertices", static_cast<double>(r.gstats.num_vertices));
  g.set("num_edges", static_cast<double>(r.gstats.num_edges));
  g.set("max_degree", static_cast<double>(r.degrees.max_degree));
  g.set("avg_degree", r.degrees.avg_degree);
  doc.set("graph", std::move(g));

  obs::Json rows = obs::Json::array();
  for (const SiteVerdict& v : r.verdicts) {
    obs::Json row = obs::Json::object();
    row.set("layer", static_cast<double>(v.layer));
    row.set("op", v.op);
    row.set("site", v.site);
    row.set("kernel", v.kernel);
    row.set("chain_level", static_cast<double>(v.chain_level));
    row.set("active", v.active);
    row.set("storage", std::string(dtype_name(v.storage)));
    row.set("verdict", std::string(verdict_name(v.verdict)));
    row.set("input_hi", v.input_hi);
    row.set("running_hi", v.running_hi);
    row.set("fan_in", static_cast<double>(v.fan_in));
    row.set("protection", v.protection);
    row.set("needed_factor", v.needed_factor);
    row.set("applied_factor", v.applied_factor);
    row.set("reason", v.reason);
    rows.push(std::move(row));
  }
  doc.set("verdicts", std::move(rows));
  doc.set("tensors", interval_map_json(r.tensors));
  doc.set("kernels", interval_map_json(r.kernels));
  doc.set("overall", std::string(verdict_name(r.overall)));
  return doc;
}

std::string validate_check_report(const obs::Json& doc) {
  const obs::Json* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "halfgnn-check-v1") {
    return "schema field missing or not halfgnn-check-v1";
  }
  for (const char* key : {"config", "graph", "verdicts", "tensors",
                          "kernels", "overall"}) {
    if (doc.find(key) == nullptr) {
      return std::string("missing top-level field: ") + key;
    }
  }
  const obs::Json* overall = doc.find("overall");
  const std::string ov = overall->as_string();
  if (ov != "SAFE" && ov != "NEEDS-SCALING" && ov != "UNSAFE") {
    return "overall verdict not in {SAFE, NEEDS-SCALING, UNSAFE}";
  }
  const obs::Json* cfg = doc.find("config");
  for (const char* key : {"model", "mode", "dtype", "train_dtype", "epochs",
                          "use_envelope"}) {
    if (cfg->find(key) == nullptr) {
      return std::string("missing config field: ") + key;
    }
  }
  const obs::Json* rows = doc.find("verdicts");
  std::size_t idx = 0;
  for (const obs::Json& row : rows->items()) {
    for (const char* key : {"layer", "op", "site", "kernel", "chain_level",
                            "active", "storage", "verdict", "running_hi",
                            "fan_in", "protection", "reason"}) {
      if (row.find(key) == nullptr) {
        return "verdict row " + std::to_string(idx) +
               " missing field: " + key;
      }
    }
    const std::string vs = row.find("verdict")->as_string();
    if (vs != "SAFE" && vs != "NEEDS-SCALING" && vs != "UNSAFE") {
      return "verdict row " + std::to_string(idx) + " has unknown verdict";
    }
    if (vs == "NEEDS-SCALING" && row.find("applied_factor")->as_double() <= 0) {
      return "verdict row " + std::to_string(idx) +
             " is NEEDS-SCALING but reports no applied factor";
    }
    ++idx;
  }
  for (const char* table : {"tensors", "kernels"}) {
    const obs::Json* m = doc.find(table);
    for (const auto& [name, p] : m->members()) {
      for (const char* key : {"lo_exp", "hi_exp", "may_overflow", "may_nan"}) {
        if (p.find(key) == nullptr) {
          return std::string(table) + " entry " + name +
                 " missing field: " + key;
        }
      }
      if (p.find("lo_exp")->as_double() > p.find("hi_exp")->as_double()) {
        return std::string(table) + " entry " + name +
               " has an empty exponent interval";
      }
    }
  }
  return "";
}

}  // namespace hg::check
