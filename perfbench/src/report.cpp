#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> kDefs = {
      {"eval.cells", "count"},
      {"eval.busy_s", "s"},
      {"eval.idle_share", "share"},
      {"eval.app_cell_p50_us", "us"},
      {"eval.app_cell_p99_us", "us"},
      {"eval.tpl_cell_p50_us", "us"},
      {"eval.sched_cell_p50_us", "us"},
      {"kernels.busy_s", "s"},
      {"kernels.calls", "count"},
      {"kernels.share", "share"},
      {"kernels.arena_grows", "count"},
      {"kernels.dct_ms", "ms"},
      {"kernels.fft_ms", "ms"},
      {"kernels.sort_ms", "ms"},
      {"kernels.mc_ms", "ms"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.dispatch_ns", "ns"},
      {"mp.mailbox_pushes", "count"},
      {"mp.scans_per_match", "ratio"},
      {"mp.pool_hit_rate", "share"},
      {"mp.pack_ns_per_kb", "ns/KiB"},
      {"net.transfer_ns.flat", "ns"},
      {"net.transfer_ns.fattree", "ns"},
      {"net.transfer_ns.dragonfly", "ns"},
      {"host.cluster_build_us", "us"},
      {"fault.retransmits_per_cell", "count"},
      {"fault.miss_cell_us", "us"},
      {"evald.ping_rtt_us", "us"},
      {"evald.codec_ns", "ns"},
      {"evald.store_lookup_ns", "ns"},
      {"evald.store_insert_us", "us"},
      {"evald.replay_s", "s"},
      {"evald.probe_steps_per_lookup", "ratio"},
      {"evald.log_bytes", "bytes"},
      {"evald.hit_rtt_p99_us", "us"},
      {"evald.miss_rtt_p99_us", "us"},
      {"evald.hit_share_explained", "share"},
      {"model.measure_s", "s"},
      {"model.fit_s", "s"},
      {"model.fit_model_ms", "ms"},
      {"sched.generate_us", "us"},
      {"sched.schedule_ms", "ms"},
      {"sched.jobs", "count"},
      {"sched.events", "count"},
      {"pass_s.tail", "s"},
      {"pass_s.tail_q", "quantile"},
      {"pass_s.samples", "count"},
      {"cell_us.tail", "us"},
      {"cell_us.tail_q", "quantile"},
      {"cell_us.samples", "count"},
      {"hit_us.tail", "us"},
      {"hit_us.tail_q", "quantile"},
      {"hit_us.samples", "count"},
      {"miss_us.tail", "us"},
      {"miss_us.tail_q", "quantile"},
      {"miss_us.samples", "count"},
      {"overhead.setup_s", "share"},
      {"overhead.pass_s", "share"},
      {"overhead.cell_p50_us", "share"},
      {"overhead.hit_p50_us", "share"},
      {"overhead.miss_p50_us", "share"},
      {"trace.spans", "count"},
      {"trace.span_mb", "MB"},
  };
  return kDefs;
}

namespace {

const LayerMetricDef* find_def(const std::string& name) {
  for (const auto& d : layer_metric_defs()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::string metric_object(double value, const std::string& unit) {
  return "{\"value\": " + json_number(value) + ", \"unit\": " + json_string(unit) + "}";
}

}  // namespace

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::e2e(const std::string& name, double value, const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value) {
  if (find_def(name) == nullptr) throw std::logic_error("unknown per-layer metric " + name);
  layer_[name] = value;
}

void Report::absent(const std::string& name, const std::string& why) { absent_[name] = why; }

void Report::absent_unset(const std::string& why) {
  for (const auto& d : layer_metric_defs()) {
    if (!layer_.contains(d.name) && !absent_.contains(d.name)) absent_[d.name] = why;
  }
}

double Report::e2e_value(const std::string& name) const {
  for (const Metric& e : e2e_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

double Report::layer_value(const std::string& name) const {
  const auto it = layer_.find(name);
  return it == layer_.end() ? 0.0 : it->second;
}
void Report::note(const std::string& key, const std::string& value) { notes_[key] = value; }
void Report::info(const std::string& key, double value) { info_[key] = value; }

std::string Report::result_json(bool traced) const {
  std::string m;
  const auto add = [&m](const std::string& name, double value, const std::string& unit) {
    if (!m.empty()) m += ", ";
    m += json_string(name) + ": " + metric_object(value, unit);
  };
  if (traced) {
    for (const auto& d : layer_metric_defs()) {
      const auto it = layer_.find(d.name);
      add(d.name, it == layer_.end() ? 0.0 : it->second, d.unit);
    }
  } else {
    for (const Metric& e : e2e_) add(e.name, e.value, e.unit);
  }
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + m + "}}";
}

std::string Report::detail_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"end_to_end\": {";
  bool first = true;
  for (const Metric& e : e2e_) {
    out += (first ? "" : ", ") + json_string(e.name) + ": " + metric_object(e.value, e.unit);
    first = false;
  }
  out += "}, \"per_layer\": {";
  first = true;
  for (const auto& [name, value] : layer_) {
    out += (first ? "" : ", ") + json_string(name) + ": " +
           metric_object(value, find_def(name)->unit);
    first = false;
  }
  out += "}, \"absent\": {";
  first = true;
  for (const auto& [name, why] : absent_) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_string(why);
    first = false;
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [key, value] : notes_) {
    out += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    out += (first ? "" : ", ") + json_string(key) + ": " + json_number(value);
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
