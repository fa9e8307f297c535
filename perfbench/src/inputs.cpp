#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "io/artifact_map.h"
#include "io/serialize.h"
#include "parts.h"

namespace dc = desmine::core;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

/// Seeded draws independent of the library's own generators.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

}  // namespace

TickStreams::TickStreams(const dc::MultivariateSeries& plant,
                         std::size_t sessions, std::uint64_t seed,
                         bool distinct, double redraw, std::size_t ticks,
                         const dc::SensorEncrypter* known) {
  const std::size_t L = plant.front().events.size();
  for (const auto& s : plant) {
    sensors_.push_back(s.name);
    std::set<std::string> states(s.events.begin(), s.events.end());
    if (known && known->keeps(s.name)) {
      for (const auto& kv : known->encoding(s.name).to_char) states.insert(kv.first);
    }
    alphabet_.emplace_back(states.begin(), states.end());
  }
  std::vector<std::vector<std::uint8_t>> code(
      L, std::vector<std::uint8_t>(sensors_.size()));
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    const auto& alpha = alphabet_[i];
    for (std::size_t t = 0; t < L; ++t) {
      code[t][i] = static_cast<std::uint8_t>(
          std::lower_bound(alpha.begin(), alpha.end(),
                           plant[i].events[t]) -
          alpha.begin());
    }
  }
  base_.reserve(L);
  for (std::size_t t = 0; t < L; ++t) base_.push_back(intern(code[t]));

  // Day offsets: distinct days per session, seeded.
  SplitMix rng(seed);
  const std::size_t days = L / kTicksPerDay;
  std::vector<std::size_t> order(days);
  for (std::size_t d = 0; d < days; ++d) order[d] = d;
  for (std::size_t d = days; d > 1; --d) std::swap(order[d - 1], order[rng.index(d)]);
  for (std::size_t s = 0; s < sessions; ++s) {
    offset_.push_back(order[s % days] * kTicksPerDay);
  }
  if (!distinct) return;

  ids_.resize(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    SplitMix srng(derive_seed(seed, 100 + s));
    ids_[s].reserve(ticks);
    std::vector<std::uint8_t> c;
    for (std::size_t t = 0; t < ticks; ++t) {
      c = code[(offset_[s] + t) % L];
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (srng.uniform() < redraw) {
          c[i] = static_cast<std::uint8_t>(srng.index(alphabet_[i].size()));
        }
      }
      ids_[s].push_back(intern(c));
    }
  }
  base_.clear();
}

std::uint32_t TickStreams::intern(const std::vector<std::uint8_t>& code) {
  const auto [it, inserted] =
      index_.emplace(code, static_cast<std::uint32_t>(pool_.size()));
  if (inserted) {
    std::map<std::string, std::string> m;
    for (std::size_t i = 0; i < code.size(); ++i) {
      m.emplace(sensors_[i], alphabet_[i][code[i]]);
    }
    pool_.push_back(std::move(m));
    codes_.push_back(code);
  }
  return it->second;
}

dc::MultivariateSeries TickStreams::series(std::size_t s, std::size_t from,
                                           std::size_t n) const {
  dc::MultivariateSeries out(sensors_.size());
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    out[i].name = sensors_[i];
    out[i].events.reserve(n);
  }
  for (std::size_t t = from; t < from + n && t < length(s); ++t) {
    const auto& c = codes_[id(s, t)];
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
      out[i].events.push_back(alphabet_[i][c[i]]);
    }
  }
  return out;
}

double TickStreams::unique_window_share(
    const std::vector<std::size_t>& windows,
    const std::vector<std::string>& kept, const dc::WindowConfig& w) const {
  const std::size_t span = w.word_length + (w.sentence_length - 1) * w.word_stride;
  const std::size_t stride = w.sentence_stride * w.word_stride;
  std::vector<std::size_t> cols;
  for (const std::string& k : kept) {
    cols.push_back(static_cast<std::size_t>(
        std::find(sensors_.begin(), sensors_.end(), k) - sensors_.begin()));
  }
  std::unordered_set<std::uint64_t> seen;
  std::size_t total = 0;
  for (std::size_t s = 0; s < windows.size(); ++s) {
    for (std::size_t k = 0; k < windows[s]; ++k) {
      for (std::size_t c : cols) {
        std::uint64_t h = 1469598103934665603ull ^ c;
        for (std::size_t t = k * stride; t < k * stride + span; ++t) {
          h = (h ^ codes_[id(s, t)][c]) * 1099511628211ull;
        }
        seen.insert(h);
        ++total;
      }
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(seen.size()) / static_cast<double>(total);
}

std::vector<double> online_replay(
    const dc::Framework& fw, std::size_t n,
    const std::function<const std::map<std::string, std::string>&(std::size_t)>&
        tick) {
  const dc::FrameworkConfig cfg = framework_config();
  dc::DetectorConfig det = cfg.detector;
  det.threads = 1;
  dc::OnlineDetector online(fw.graph(), fw.encrypter(), cfg.window, det);
  std::vector<double> scores;
  for (std::size_t t = 0; t < n; ++t) {
    if (const auto r = online.push(tick(t))) {
      if (r->window_index != scores.size()) return {};  // out of order
      scores.push_back(r->anomaly_score);
    }
  }
  return scores;
}

std::string checked_artifact(const Args& args, const Paths& paths,
                             Report& report) {
  std::string artifact = paths.artifact;
  std::string recorded;
  std::ifstream(paths.digest) >> recorded;
  if (args.corrupt == "digest" && !recorded.empty()) {
    recorded[0] = recorded[0] == '0' ? '1' : '0';
  }
  if (args.corrupt == "artifact") {
    artifact = paths.scratch + "/corrupt.v4";
    fs::copy_file(paths.artifact, artifact, fs::copy_options::overwrite_existing);
    flip_middle_byte(artifact);
  }
  std::size_t edges = 0;
  try {
    desmine::io::ArtifactMap::open(artifact)->verify_all();
    const dc::Framework fw = desmine::io::load_framework(artifact, framework_config());
    edges = fw.graph().edges().size();
    report.check(edges == 72, "artifact has " + std::to_string(edges) + " edges, not 72");
    report.check(hex64(bleu_digest(fw.graph())) == recorded,
                 "artifact BLEU digest differs from the one recorded when it was mined");
  } catch (const std::exception& e) {
    report.check(false, std::string("artifact: ") + e.what());
  }
  report.info("artifact", "{\"edges\": " + std::to_string(edges) +
                              ", \"bleu_digest\": " + json_string(recorded) + "}");
  return report.correct() ? artifact : std::string();
}

void parallel_run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < std::min(kPoolThreads, n); ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

dc::MultivariateSeries cut(const dc::MultivariateSeries& series,
                           std::size_t from, std::size_t n) {
  dc::MultivariateSeries out;
  for (const auto& s : series) {
    const std::size_t a = std::min(from, s.events.size());
    const std::size_t b = std::min(from + n, s.events.size());
    out.push_back({s.name, dc::EventSequence(s.events.begin() + a,
                                             s.events.begin() + b)});
  }
  return out;
}

}  // namespace perfbench
