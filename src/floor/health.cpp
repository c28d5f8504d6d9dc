#include "floor/health.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace casbus::floor {
namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

/// Messages are composed here from known-safe pieces, but escape anyway —
/// a stage or scenario name with a quote must not corrupt the report.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream os;
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c);
          out += os.str();
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

constexpr std::size_t kMaxEvents = 256;  ///< transition-log bound

int level_rank(HealthLevel level) { return static_cast<int>(level); }

}  // namespace

const char* health_level_name(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk: return "ok";
    case HealthLevel::kWarn: return "warn";
    case HealthLevel::kCritical: return "critical";
  }
  return "ok";
}

const char* health_rule_id(HealthRule rule) {
  switch (rule) {
    case HealthRule::kQueueSaturation: return "HL001";
    case HealthRule::kBackpressure: return "HL002";
    case HealthRule::kStageLatency: return "HL003";
    case HealthRule::kErrorRate: return "HL004";
    case HealthRule::kCacheHitRate: return "HL005";
    case HealthRule::kWorkerWatchdog: return "HL006";
    case HealthRule::kTraceDrops: return "HL007";
  }
  return "HL000";
}

const char* health_rule_name(HealthRule rule) {
  switch (rule) {
    case HealthRule::kQueueSaturation: return "queue-saturation";
    case HealthRule::kBackpressure: return "backpressure";
    case HealthRule::kStageLatency: return "stage-latency";
    case HealthRule::kErrorRate: return "error-rate";
    case HealthRule::kCacheHitRate: return "cache-hit-rate";
    case HealthRule::kWorkerWatchdog: return "worker-watchdog";
    case HealthRule::kTraceDrops: return "trace-drops";
  }
  return "unknown";
}

Hysteresis::Hysteresis(HysteresisConfig config) : config_(config) {
  if (config_.trip_m == 0) config_.trip_m = 1;
  if (config_.window_n < config_.trip_m) config_.window_n = config_.trip_m;
  if (config_.clear_k == 0) config_.clear_k = 1;
}

void Hysteresis::reset() {
  recent_.clear();
  calm_ = 0;
  state_ = HealthLevel::kOk;
}

HealthLevel Hysteresis::update(HealthLevel raw) {
  recent_.push_back(raw);
  while (recent_.size() > config_.window_n) recent_.pop_front();

  // Escalate to the highest level above the current state that at least
  // trip_m of the retained raw samples reach.
  for (int lvl = level_rank(HealthLevel::kCritical);
       lvl > level_rank(state_); --lvl) {
    std::size_t at_or_above = 0;
    for (const HealthLevel r : recent_)
      if (level_rank(r) >= lvl) ++at_or_above;
    if (at_or_above >= config_.trip_m) {
      state_ = static_cast<HealthLevel>(lvl);
      calm_ = 0;
      return state_;
    }
  }

  // Step down one level after clear_k consecutive samples strictly below
  // the current state; the raw window resets so a pre-clear burst cannot
  // immediately re-trip.
  if (state_ != HealthLevel::kOk) {
    if (level_rank(raw) < level_rank(state_)) {
      ++calm_;
    } else {
      calm_ = 0;
    }
    if (calm_ >= config_.clear_k) {
      state_ = static_cast<HealthLevel>(level_rank(state_) - 1);
      calm_ = 0;
      recent_.clear();
    }
  }
  return state_;
}

HealthMonitor::HealthMonitor(HealthConfig config)
    : config_(std::move(config)) {
  for (Hysteresis& h : hysteresis_) h = Hysteresis(config_.hysteresis);
}

RuleStatus HealthMonitor::eval_rule_locked(HealthRule rule,
                                           const FloorStats& stats,
                                           const Point& oldest,
                                           const Point& newest,
                                           bool have_window) const {
  RuleStatus st;
  st.rule = rule;
  const double dt = newest.t - oldest.t;
  const bool rated = have_window && dt > 1e-9;
  std::ostringstream msg;
  msg.precision(4);

  switch (rule) {
    case HealthRule::kQueueSaturation: {
      st.enabled = stats.queue.capacity > 0;
      st.threshold = config_.queue_warn_fill;
      if (!st.enabled) break;
      st.value = static_cast<double>(stats.queue.depth) /
                 static_cast<double>(stats.queue.capacity);
      if (st.value >= config_.queue_critical_fill) {
        st.raw = HealthLevel::kCritical;
      } else if (st.value >= config_.queue_warn_fill) {
        st.raw = HealthLevel::kWarn;
      }
      if (st.raw != HealthLevel::kOk) {
        msg << "queue " << stats.queue.depth << '/' << stats.queue.capacity
            << " (" << st.value * 100.0 << "% full)";
      }
      break;
    }
    case HealthRule::kBackpressure: {
      st.threshold = config_.backpressure_warn_per_sec;
      if (!rated || st.threshold <= 0.0) break;
      st.value = static_cast<double>(newest.bp_engages - oldest.bp_engages) /
                 dt;
      if (st.value >= st.threshold) {
        st.raw = HealthLevel::kWarn;
        msg << "producers blocked " << st.value << "/s over last " << dt
            << "s";
      }
      break;
    }
    case HealthRule::kStageLatency: {
      bool any_ceiling = false;
      for (const double c : config_.stage_p99_ceiling_us)
        any_ceiling = any_ceiling || c > 0.0;
      st.enabled = any_ceiling && stats.metrics_enabled;
      if (!st.enabled) break;
      double worst_ratio = 0.0;
      std::size_t worst_stage = kStageCount;
      for (std::size_t s = 0; s < kStageCount; ++s) {
        const double ceiling = config_.stage_p99_ceiling_us[s];
        if (ceiling <= 0.0 || stats.stages[s].count == 0) continue;
        const double ratio = stats.stages[s].p99_us / ceiling;
        if (ratio > worst_ratio) {
          worst_ratio = ratio;
          worst_stage = s;
        }
      }
      if (worst_stage == kStageCount) break;
      st.value = stats.stages[worst_stage].p99_us;
      st.threshold = config_.stage_p99_ceiling_us[worst_stage];
      if (worst_ratio >= 2.0) {
        st.raw = HealthLevel::kCritical;
      } else if (worst_ratio >= 1.0) {
        st.raw = HealthLevel::kWarn;
      }
      if (st.raw != HealthLevel::kOk) {
        msg << stage_name(static_cast<Stage>(worst_stage)) << " p99 "
            << st.value << "us over ceiling " << st.threshold << "us";
      }
      break;
    }
    case HealthRule::kErrorRate: {
      st.threshold = config_.error_warn_rate;
      const std::uint64_t d_jobs = newest.completed - oldest.completed;
      if (!have_window || d_jobs < config_.error_min_jobs) break;
      st.value = static_cast<double>(newest.errored - oldest.errored) /
                 static_cast<double>(d_jobs);
      if (st.value >= config_.error_critical_rate) {
        st.raw = HealthLevel::kCritical;
      } else if (st.value >= config_.error_warn_rate) {
        st.raw = HealthLevel::kWarn;
      }
      if (st.raw != HealthLevel::kOk) {
        msg << st.value * 100.0 << "% of last " << d_jobs
            << " jobs errored";
      }
      break;
    }
    case HealthRule::kCacheHitRate: {
      st.enabled = config_.cache_hit_floor > 0.0 && stats.metrics_enabled;
      st.threshold = config_.cache_hit_floor;
      const std::uint64_t d_lookups =
          newest.cache_lookups - oldest.cache_lookups;
      if (!st.enabled || !have_window ||
          d_lookups < config_.cache_min_lookups)
        break;
      st.value = static_cast<double>(newest.cache_hits - oldest.cache_hits) /
                 static_cast<double>(d_lookups);
      if (st.value < config_.cache_hit_floor * 0.5) {
        st.raw = HealthLevel::kCritical;
      } else if (st.value < config_.cache_hit_floor) {
        st.raw = HealthLevel::kWarn;
      }
      if (st.raw != HealthLevel::kOk) {
        msg << "hit-rate " << st.value * 100.0 << "% under floor "
            << config_.cache_hit_floor * 100.0 << "% over " << d_lookups
            << " lookups";
      }
      break;
    }
    case HealthRule::kWorkerWatchdog: {
      st.enabled = config_.watchdog_ms > 0;
      const double deadline =
          static_cast<double>(config_.watchdog_ms) * 1e-3;
      st.threshold = deadline;
      if (!st.enabled) break;
      std::size_t worst_worker = 0;
      for (std::size_t w = 0;
           w < stats.worker_inflight_age_seconds.size(); ++w) {
        if (stats.worker_inflight_age_seconds[w] > st.value) {
          st.value = stats.worker_inflight_age_seconds[w];
          worst_worker = w;
        }
      }
      if (st.value > deadline) {
        st.raw = HealthLevel::kCritical;
      } else if (st.value > deadline * 0.5) {
        st.raw = HealthLevel::kWarn;
      }
      if (st.raw != HealthLevel::kOk) {
        msg << "worker " << worst_worker << " in-flight for " << st.value
            << "s (deadline " << deadline << "s)";
      }
      break;
    }
    case HealthRule::kTraceDrops: {
      st.threshold = 0.0;
      if (!have_window) break;
      st.value =
          static_cast<double>(newest.trace_dropped - oldest.trace_dropped);
      if (st.value > 0.0) {
        st.raw = HealthLevel::kWarn;
        msg << st.value << " trace spans dropped in the window";
      }
      break;
    }
  }
  st.message = msg.str();
  return st;
}

HealthReport HealthMonitor::evaluate(const FloorStats& stats,
                                     double t_seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  Point p;
  p.t = t_seconds;
  p.completed = stats.completed;
  p.errored = stats.errored;
  p.bp_engages = stats.queue.backpressure_engages;
  p.cache_lookups = stats.counter(FloorCounter::CacheLookups);
  p.cache_hits = stats.cache_hits();
  p.trace_dropped = stats.trace_dropped;
  history_.push_back(p);
  const std::size_t keep = std::max<std::size_t>(2, config_.rate_window);
  while (history_.size() > keep) history_.pop_front();

  ++evaluations_;
  HealthReport report;
  report.t_seconds = t_seconds;
  report.samples = evaluations_;
  report.incidents_written = incidents_;
  report.events = std::move(last_.events);  // the log carries forward

  const bool have_window = history_.size() >= 2;
  for (std::size_t i = 0; i < kHealthRuleCount; ++i) {
    const auto rule = static_cast<HealthRule>(i);
    RuleStatus st = eval_rule_locked(rule, stats, history_.front(),
                                     history_.back(), have_window);
    if (!st.enabled) st.raw = HealthLevel::kOk;
    const HealthLevel prev = hysteresis_[i].state();
    st.level = hysteresis_[i].update(st.raw);
    if (st.level != prev) {
      HealthEvent ev;
      ev.sample = evaluations_;
      ev.t_seconds = t_seconds;
      ev.rule = rule;
      ev.from = prev;
      ev.to = st.level;
      ev.value = st.value;
      ev.message = st.message.empty()
                       ? std::string("level ") + health_level_name(prev) +
                             " -> " + health_level_name(st.level)
                       : st.message;
      report.events.push_back(std::move(ev));
      while (report.events.size() > kMaxEvents)
        report.events.erase(report.events.begin());
    }
    if (level_rank(st.level) > level_rank(report.overall))
      report.overall = st.level;
    report.rules[i] = std::move(st);
  }

  last_ = report;
  return report;
}

HealthReport HealthMonitor::last_report() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

std::uint64_t HealthMonitor::evaluations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evaluations_;
}

void HealthMonitor::record_incidents(std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  incidents_ += n;
  last_.incidents_written = incidents_;
}

std::string HealthReport::to_json() const {
  std::ostringstream os;
  os << "{\"t_seconds\":" << num(t_seconds) << ",\"samples\":" << samples
     << ",\"overall\":\"" << health_level_name(overall)
     << "\",\"incidents_written\":" << incidents_written << ",\"rules\":[";
  for (std::size_t i = 0; i < kHealthRuleCount; ++i) {
    const RuleStatus& st = rules[i];
    if (i != 0) os << ',';
    os << "{\"id\":\"" << health_rule_id(st.rule) << "\",\"name\":\""
       << health_rule_name(st.rule)
       << "\",\"enabled\":" << (st.enabled ? "true" : "false")
       << ",\"raw\":\"" << health_level_name(st.raw) << "\",\"level\":\""
       << health_level_name(st.level) << "\",\"value\":" << num(st.value)
       << ",\"threshold\":" << num(st.threshold) << ",\"message\":\""
       << json_escape(st.message) << "\"}";
  }
  os << "],\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const HealthEvent& ev = events[i];
    if (i != 0) os << ',';
    os << "{\"sample\":" << ev.sample
       << ",\"t_seconds\":" << num(ev.t_seconds) << ",\"rule\":\""
       << health_rule_id(ev.rule) << "\",\"from\":\""
       << health_level_name(ev.from) << "\",\"to\":\""
       << health_level_name(ev.to) << "\",\"value\":" << num(ev.value)
       << ",\"message\":\"" << json_escape(ev.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string HealthReport::to_string() const {
  std::ostringstream os;
  os << "health: " << health_level_name(overall) << " (sample " << samples
     << ", t=" << num(t_seconds) << "s, incidents " << incidents_written
     << ")";
  for (const RuleStatus& st : rules) {
    if (st.level == HealthLevel::kOk && st.raw == HealthLevel::kOk)
      continue;
    os << '\n'
       << "  " << health_rule_id(st.rule) << ' '
       << health_rule_name(st.rule) << ": " << health_level_name(st.level)
       << (st.message.empty() ? "" : " — ") << st.message;
  }
  return os.str();
}

bool write_incident_bundle(const std::string& dir, std::uint64_t seq,
                           const IncidentInputs& inputs,
                           std::string* out_path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;

  // Stage into a hidden temp directory, then rename into place: readers
  // (CI, a human, a fleet supervisor) never see a half-written bundle.
  const fs::path tmp = fs::path(dir) / (".tmp_" + std::to_string(seq));
  fs::remove_all(tmp, ec);  // a crashed earlier attempt, if any
  ec.clear();
  fs::create_directory(tmp, ec);
  if (ec) return false;

  std::vector<std::string> files;
  const auto write_file = [&](const char* name, const std::string& body) {
    std::ofstream os(tmp / name, std::ios::binary);
    os << body << '\n';
    if (!os) return false;
    files.emplace_back(name);
    return true;
  };

  bool ok = write_file("stats.json", inputs.stats_json) &&
            write_file("health.json", inputs.health_json);
  if (ok && !inputs.timeseries_json.empty())
    ok = write_file("timeseries.json", inputs.timeseries_json);
  if (ok && inputs.trace != nullptr) {
    ok = inputs.trace->write_chrome_trace((tmp / "trace.json").string());
    if (ok) files.emplace_back("trace.json");
  }
  if (ok) {
    std::ostringstream manifest;
    manifest << "{\"seq\":" << seq << ",\"rule\":\""
             << json_escape(inputs.rule_id)
             << "\",\"t_seconds\":" << num(inputs.t_seconds)
             << ",\"files\":[";
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (i != 0) manifest << ',';
      manifest << '"' << files[i] << '"';
    }
    manifest << "]}";
    ok = write_file("MANIFEST.json", manifest.str());
  }
  if (!ok) {
    fs::remove_all(tmp, ec);
    return false;
  }

  std::ostringstream name;
  name << "incident_" << std::setw(4) << std::setfill('0') << seq << '_'
       << inputs.rule_id;
  const fs::path final_path = fs::path(dir) / name.str();
  fs::remove_all(final_path, ec);  // same-seq retry replaces, atomically
  ec.clear();
  fs::rename(tmp, final_path, ec);
  if (ec) {
    fs::remove_all(tmp, ec);
    return false;
  }
  if (out_path != nullptr) *out_path = final_path.string();
  return true;
}

}  // namespace casbus::floor
