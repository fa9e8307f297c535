#include "serve/model_registry.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace desmine::serve {

std::shared_ptr<const ModelGeneration> make_generation(
    const core::MvrGraph& graph, const core::DetectorConfig& detector,
    std::uint64_t id) {
  DESMINE_EXPECTS(detector.valid_lo <= detector.valid_hi, "valid band order");
  auto gen = std::make_shared<ModelGeneration>();
  gen->id = id;
  gen->detector = detector;
  for (const core::MvrEdge& e : graph.edges()) {
    if (detector.in_band(e.bleu)) {
      DESMINE_EXPECTS(e.model != nullptr, "valid edge lacks a trained model");
      EdgeModel edge;
      edge.src = e.src;
      edge.dst = e.dst;
      edge.train_bleu = e.bleu;
      edge.model = e.model;
      gen->edges.push_back(std::move(edge));
    }
  }
  return gen;
}

std::shared_ptr<const ModelGeneration> make_generation(
    std::shared_ptr<io::ArtifactMap> map, const core::DetectorConfig& detector,
    std::uint64_t id, const ResidencyConfig& residency) {
  DESMINE_EXPECTS(detector.valid_lo <= detector.valid_hi, "valid band order");
  auto gen = std::make_shared<ModelGeneration>();
  gen->id = id;
  gen->detector = detector;
  gen->residency =
      std::make_shared<ResidencyManager>(std::move(map), residency);
  const auto& entries = gen->residency->map()->edges();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const io::EdgeEntry& e = entries[i];
    if (detector.in_band(e.bleu)) {
      DESMINE_EXPECTS(e.has_model, "valid edge lacks a trained model");
      EdgeModel edge;
      edge.src = e.src;
      edge.dst = e.dst;
      edge.train_bleu = e.bleu;
      edge.residency = gen->residency;
      edge.map_index = i;
      gen->edges.push_back(std::move(edge));
    }
  }
  return gen;
}

ModelRegistry::ModelRegistry(std::shared_ptr<const ModelGeneration> initial)
    : current_(std::move(initial)) {
  DESMINE_EXPECTS(current_ != nullptr, "registry needs an initial generation");
}

std::shared_ptr<const ModelGeneration> ModelRegistry::current() const {
  std::lock_guard lock(mu_);
  return current_;
}

std::shared_ptr<const ModelGeneration> ModelRegistry::publish(
    std::shared_ptr<const ModelGeneration> next) {
  DESMINE_EXPECTS(next != nullptr, "cannot publish a null generation");
  std::lock_guard lock(mu_);
  DESMINE_EXPECTS(next->id > current_->id,
                  "generation ids must increase across publishes");
  std::shared_ptr<const ModelGeneration> retired = std::move(current_);
  retired_.push_back(retired);
  current_ = std::move(next);
  return retired;
}

std::uint64_t ModelRegistry::generation() const {
  std::lock_guard lock(mu_);
  return current_->id;
}

std::size_t ModelRegistry::retired_live() const {
  std::lock_guard lock(mu_);
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const std::weak_ptr<const ModelGeneration>&
                                       w) { return w.expired(); }),
                 retired_.end());
  return retired_.size();
}

}  // namespace desmine::serve
