// Per-layer probes for traced runs. Each replays the workload's own input
// through one layer's public function and times the call from outside.
#include <filesystem>

#include "io/artifact_map.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "parts.h"
#include "tensor/matrix.h"
#include "text/bleu.h"

namespace dc = desmine::core;
namespace dt = desmine::tensor;
namespace fs = std::filesystem;

namespace perfbench {

void probe_encode(const dc::Framework& fw, const dc::MultivariateSeries& series,
                  Tracer& tracer, Report& report) {
  std::vector<double> s;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(&tracer, "core.encode", 0, rep);
    const auto t0 = Clock::now();
    const auto corpora = fw.to_corpora(series);
    s.push_back(seconds_between(t0, Clock::now()));
  }
  report.metric("core.encode_s", median(s), "s");
}

void probe_mine(const dc::Framework& fw, const dc::MultivariateSeries& series,
                Tracer& tracer, Report& report) {
  // The first four kept sensors: 12 ordered pairs on the mining pool.
  const auto& enc = fw.encrypter();
  const std::size_t n = series.front().events.size();
  std::vector<dc::SensorLanguage> langs;
  for (const auto& s : series) {
    if (!enc.keeps(s.name) || langs.size() == 4) continue;
    const dc::EventSequence train(s.events.begin(), s.events.begin() + 2 * n / 3);
    const dc::EventSequence dev(s.events.begin() + 2 * n / 3, s.events.end());
    langs.push_back({s.name, fw.language().generate(enc.encode(s.name, train)),
                     fw.language().generate(enc.encode(s.name, dev))});
  }
  dc::MinerConfig cfg = framework_config().miner;
  ScopedSpan root(&tracer, "probe.mine");
  MineRecorder recorder(&tracer, root.id());
  recorder.install(cfg);
  const auto t0 = Clock::now();
  const dc::MvrGraph graph = dc::RelationshipMiner(cfg).mine(langs);
  recorder.report(report, seconds_between(t0, Clock::now()), cfg.threads);
  report.check(graph.failures().empty(), "probe mining failed a pair");
}

void probe_detect(const dc::Framework& fw, const dc::MultivariateSeries& series,
                  Tracer& tracer, Report& report) {
  auto& h = desmine::obs::metrics().histogram("detector.edge_score_ms");
  h.reset();
  {
    ScopedSpan span(&tracer, "core.detect");
    fw.detect(series);
  }
  report.metric("core.detect.edge_score_ms", h.snapshot().quantile(0.5), "ms");
}

void probe_decode_bleu(const dc::Framework& fw, const dc::MultivariateSeries& series,
                       Tracer& tracer, Report& report) {
  constexpr std::size_t kRows = 32;  // ServeConfig::max_batch
  constexpr std::size_t kPerEdge = 64;
  const auto corpora = fw.to_corpora(series);
  double decode_s = 0.0, sentence_s = 0.0, corpus_s = 0.0;
  std::size_t sentences = 0, corpus_calls = 0;
  for (const dc::MvrEdge& e : fw.graph().edges()) {
    if (!e.model) continue;
    const auto& src = corpora[e.src];
    const auto& ref = corpora[e.dst];
    const std::size_t n = std::min(kPerEdge, src.size());
    desmine::text::Corpus out, refs(ref.begin(), ref.begin() + n);
    for (std::size_t b = 0; b < n; b += kRows) {
      std::vector<const desmine::text::Sentence*> rows;
      for (std::size_t i = b; i < std::min(n, b + kRows); ++i) rows.push_back(&src[i]);
      const auto t0 = Clock::now();
      auto got = e.model->translate_batch(rows);
      const auto t1 = Clock::now();
      tracer.add("nmt.decode.batch", t0, t1, 0, e.src * 64 + e.dst);
      decode_s += seconds_between(t0, t1);
      for (auto& s : got) out.push_back(std::move(s));
    }
    sentences += n;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) desmine::text::sentence_bleu(out[i], refs[i]);
    const auto t1 = Clock::now();
    desmine::text::corpus_bleu(out, refs);
    const auto t2 = Clock::now();
    tracer.add("text.bleu.sentence", t0, t1, 0, e.src * 64 + e.dst);
    tracer.add("text.bleu.corpus", t1, t2, 0, e.src * 64 + e.dst);
    sentence_s += seconds_between(t0, t1);
    corpus_s += seconds_between(t1, t2);
    ++corpus_calls;
  }
  report.metric("nmt.decode.sentences_per_s",
                static_cast<double>(sentences) / decode_s, "1/s");
  report.metric("text.bleu.sentence_us",
                sentence_s * 1e6 / static_cast<double>(sentences), "us");
  report.metric("text.bleu.corpus_ms",
                corpus_s * 1e3 / static_cast<double>(corpus_calls), "ms");
}

void probe_gemm(Tracer& tracer, Report& report) {
  // The LSTM gate GEMM the model config implies: [rows x (E + H)] times
  // [(E + H) x 4H] with E = H = 24, at the training batch (16) and the
  // serve decode batch (32).
  const auto& m = framework_config().miner.translation;
  const std::size_t k = m.model.embedding_dim + m.model.hidden_dim;
  const std::size_t n = 4 * m.model.hidden_dim;
  std::string bytes_info;
  for (const auto& [name, rows] :
       {std::pair<const char*, std::size_t>{"train", m.trainer.batch_size},
        {"decode", std::size_t{32}}}) {
    dt::Matrix a(rows, k), b(k, n), c(rows, n);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < k; ++j) a(i, j) = 0.01f * static_cast<float>((i * 7 + j) % 13);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < n; ++j) b(i, j) = 0.02f * static_cast<float>((i * 5 + j) % 11);
    std::vector<double> gflops;
    for (int rep = 0; rep < 5; ++rep) {
      constexpr int kCalls = 2000;
      const auto t0 = Clock::now();
      for (int call = 0; call < kCalls; ++call) {
        dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a, b, 0.0f, c);
      }
      const auto t1 = Clock::now();
      tracer.add("tensor.gemm", t0, t1, 0, rows);
      gflops.push_back(2.0 * static_cast<double>(rows * k * n) * kCalls /
                       seconds_between(t0, t1) / 1e9);
    }
    report.metric(std::string("tensor.gemm.gflops.") + name, median(gflops), "GFLOP/s");
    bytes_info += std::string(bytes_info.empty() ? "" : ", ") + "\"" + name +
                  "\": {\"m\": " + std::to_string(rows) + ", \"k\": " + std::to_string(k) +
                  ", \"n\": " + std::to_string(n) + ", \"flop\": " +
                  std::to_string(2 * rows * k * n) + ", \"bytes\": " +
                  std::to_string(4 * (rows * k + k * n + rows * n)) + "}";
  }
  report.info("gemm_shapes", "{" + bytes_info + "}");
}

void probe_io(const std::string& artifact, const dc::Framework* write_from,
              const std::string& scratch, Tracer& tracer, Report& report) {
  std::vector<double> open_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const auto map = desmine::io::ArtifactMap::open(artifact);
    const auto t1 = Clock::now();
    tracer.add("io.artifact.open", t0, t1, 0, rep);
    open_ms.push_back(ms_between(t0, t1));
  }
  report.metric("io.artifact.open_ms", median(open_ms), "ms");
  if (!write_from) return;
  const std::string path = scratch + "/probe.v4";
  const auto t0 = Clock::now();
  desmine::io::save_framework(*write_from, path);
  const auto t1 = Clock::now();
  tracer.add("io.artifact.write", t0, t1);
  report.metric("io.artifact.write_ms", ms_between(t0, t1), "ms");
  report.metric("io.artifact.bytes", static_cast<double>(fs::file_size(path)), "bytes");
  fs::remove(path);
}

void report_registry_layers(Report& report) {
  auto& m = desmine::obs::metrics();
  report.metric("tensor.workspace.bytes_peak",
                m.gauge("tensor.workspace.bytes_peak").value(), "bytes");
  const auto wait = m.histogram("threadpool.queue_wait_us").snapshot();
  report.metric("util.threadpool.queue_wait_us.p50", wait.quantile(0.5), "us");
  report.metric("util.threadpool.queue_wait_us.p99", wait.quantile(0.99), "us");
}

void report_overhead(Report& report, double untraced_rate, double traced_rate) {
  report.metric("trace.overhead_share", (untraced_rate - traced_rate) / untraced_rate,
                "ratio");
  report.info("trace_rates", "{\"untraced\": " + std::to_string(untraced_rate) +
                                 ", \"traced\": " + std::to_string(traced_rate) + "}");
}

}  // namespace perfbench
