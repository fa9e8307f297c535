#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <pthread.h>
#include <sched.h>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void Report::info(const std::string& key, const std::string& json) {
  info_.push_back({key, json});
}

void Report::print() const {
  std::ostringstream info;
  info << "{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    info << (i ? ", " : "") << json_string(info_[i].first) << ": "
         << info_[i].second;
  }
  info << (info_.empty() ? "" : ", ") << "\"check_failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    info << (i ? ", " : "") << json_string(failures_[i]);
  }
  info << "]}";
  std::cout << info.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics_[i].first)
        << ": {\"value\": " << number(metrics_[i].second.first)
        << ", \"unit\": " << json_string(metrics_[i].second.second) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---- tracer -------------------------------------------------------------------

std::uint32_t Tracer::next_id() {
  std::lock_guard lock(mu_);
  return next_++;
}

std::uint32_t Tracer::add(const char* name, Clock::time_point start,
                          Clock::time_point end, std::uint32_t parent,
                          std::uint64_t request, std::uint32_t id) {
  std::lock_guard lock(mu_);
  if (id == 0) id = next_++;
  spans_.push_back(Span{name, id, parent, request, start, end});
  return id;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  {
    std::ofstream csv(path + ".csv");
    csv << "name,id,parent,request,start_us,end_us\n";
    for (const Span& s : spans_) {
      csv << s.name << ',' << s.id << ',' << s.parent << ',' << s.request
          << ',' << std::chrono::duration<double, std::micro>(s.start - origin_).count()
          << ',' << std::chrono::duration<double, std::micro>(s.end - origin_).count()
          << '\n';
    }
  }
  // Self time: a span's duration minus the durations of its children.
  std::map<std::uint32_t, double> child_ms;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += ms_between(s.start, s.end);
  }
  struct Agg {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans_) {
    Agg& a = by_name[s.name];
    const double d = ms_between(s.start, s.end);
    ++a.count;
    a.total_ms += d;
    const auto it = child_ms.find(s.id);
    a.self_ms += d - (it == child_ms.end() ? 0.0 : it->second);
  }
  std::ofstream js(path + ".summary.json");
  js << "{";
  bool first = true;
  for (const auto& [name, a] : by_name) {
    js << (first ? "" : ",") << "\n  " << json_string(name)
       << ": {\"count\": " << a.count << ", \"total_ms\": " << number(a.total_ms)
       << ", \"self_ms\": " << number(a.self_ms) << "}";
    first = false;
  }
  js << "\n}\n";
}

// ---- statistics -----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double median_rate(const std::vector<std::pair<double, double>>& chunks,
                   std::size_t groups) {
  std::vector<double> rates;
  const std::size_t n = chunks.size();
  for (std::size_t g = 0; g < groups; ++g) {
    double items = 0.0, secs = 0.0;
    for (std::size_t i = g * n / groups; i < (g + 1) * n / groups; ++i) {
      items += chunks[i].first;
      secs += chunks[i].second;
    }
    if (secs > 0.0) rates.push_back(items / secs);
  }
  return median(rates);
}

double median_quantile(const std::vector<double>& samples, double q,
                       std::size_t groups) {
  std::vector<double> per_group;
  const std::size_t n = samples.size();
  for (std::size_t g = 0; g < groups; ++g) {
    per_group.push_back(quantile(
        std::vector<double>(samples.begin() + g * n / groups,
                            samples.begin() + (g + 1) * n / groups),
        q));
  }
  return median(per_group);
}

double tail_q(std::size_t n) {
  for (double q : {0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

IdleSpinners::IdleSpinners(std::size_t threads) {
  for (std::size_t t = 0; t < threads; ++t) {
    threads_.emplace_back([this] {
      sched_param param{};
      // Best effort: without SCHED_IDLE the spinner would compete with the
      // workload, so it does not spin at all.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

void warm_up(std::size_t threads, Clock::duration d) {
  const auto until = Clock::now() + d;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([until] {
      while (Clock::now() < until) {
      }
    });
  }
  for (auto& th : pool) th.join();
}

double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ---- configuration ------------------------------------------------------------------

desmine::data::PlantConfig plant_config(std::uint64_t seed, std::size_t days) {
  desmine::data::PlantConfig cfg;
  cfg.days = days;
  cfg.minutes_per_day = kTicksPerDay;
  cfg.seed = seed;
  cfg.num_components = 2;
  cfg.sensors_per_component = 3;
  cfg.num_popular = 1;
  cfg.num_lazy = 2;
  cfg.num_constant = 1;
  cfg.anomalies.clear();
  return cfg;
}

desmine::core::FrameworkConfig framework_config() {
  desmine::core::FrameworkConfig cfg;
  cfg.window = {10, 1, 20, 20};
  cfg.miner.translation.model.embedding_dim = 24;
  cfg.miner.translation.model.hidden_dim = 24;
  cfg.miner.translation.model.num_layers = 1;
  cfg.miner.translation.model.dropout = 0.0f;
  cfg.miner.translation.model.max_decode_length = 22;
  cfg.miner.translation.trainer.steps = 250;
  cfg.miner.translation.trainer.batch_size = 16;
  cfg.miner.seed = 5;
  cfg.miner.threads = kPoolThreads;
  cfg.detector.valid_lo = 0.0;
  cfg.detector.valid_hi = 100.5;
  cfg.detector.threads = kPoolThreads;
  return cfg;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): stable across platforms and libraries.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t digest_bits(const std::vector<double>& values, std::uint64_t h) {
  for (double v : values) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t bleu_digest(const desmine::core::MvrGraph& graph) {
  std::vector<double> values;
  for (const auto& e : graph.edges()) {
    values.push_back(static_cast<double>(e.src));
    values.push_back(static_cast<double>(e.dst));
    values.push_back(e.bleu);
  }
  return digest_bits(values);
}

double flip_bit(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  u ^= 1;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

void flip_middle_byte(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto mid = static_cast<std::streamoff>(std::filesystem::file_size(path) / 2);
  f.seekg(mid);
  const char c = static_cast<char>(f.get());
  f.seekp(mid);
  f.put(static_cast<char>(c ^ 0x5A));
}

Paths paths_for(const Args& args) {
  Paths p;
  const std::string art = args.work_dir + "/artifacts";
  std::filesystem::create_directories(art);
  p.artifact = art + "/mvrg-" + args.build_key + ".v4";
  p.digest = p.artifact + ".digest";
  p.trace_prefix = args.work_dir + "/traces/" + args.workload;
  p.scratch = args.work_dir + "/scratch-" + args.workload;
  std::filesystem::create_directories(p.scratch);
  return p;
}

}  // namespace perfbench
