#include "nn/attention.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace desmine::nn {

LuongAttention::LuongAttention(const std::string& name, std::size_t hidden,
                               util::Rng& rng, float init_scale,
                               AttentionScore score, WeightStorage storage)
    : hidden_(hidden),
      score_(score),
      wa_(name + ".Wa", hidden, hidden, storage),
      wc_(name + ".Wc", 2 * hidden, hidden, storage) {
  DESMINE_EXPECTS(hidden > 0, "attention hidden must be > 0");
  if (storage == WeightStorage::kOwned) {
    wa_.value.init_uniform(rng, init_scale);
    wc_.value.init_uniform(rng, init_scale);
  }
}

void LuongAttention::bind(
    const std::vector<tensor::ConstMatrixView>& encoder_outputs,
    std::size_t batch, tensor::Workspace& workspace) {
  DESMINE_EXPECTS(!encoder_outputs.empty(), "attention needs encoder outputs");
  ws_ = &workspace;
  enc_.assign(encoder_outputs.begin(), encoder_outputs.end());
  batch_ = batch;
  transformed_.clear();
  transformed_.reserve(enc_.size());
  for (const tensor::ConstMatrixView e : enc_) {
    DESMINE_EXPECTS(e.rows() == batch && e.cols() == hidden_,
                    "encoder output shape");
    if (score_ == AttentionScore::kGeneral) {
      tensor::MatrixView t = ws_->alloc(batch, hidden_);
      tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f, e,
                   wa_.view(), 0.0f, t);
      transformed_.push_back(t);
    } else {
      transformed_.push_back(e);  // dot score: transformed == encoder output
    }
  }
  d_encoder_.clear();
  steps_.clear();
  backward_cursor_ = 0;
}

void LuongAttention::begin(
    const std::vector<tensor::ConstMatrixView>& encoder_outputs,
    std::size_t batch, tensor::Workspace* workspace) {
  if (workspace == nullptr) own_ws_.reset();
  bind(encoder_outputs, batch, workspace != nullptr ? *workspace : own_ws_);
  decode_ = false;
  src_lengths_.clear();
  d_encoder_.reserve(enc_.size());
  for (std::size_t s = 0; s < enc_.size(); ++s) {
    d_encoder_.push_back(ws_->alloc(batch, hidden_));
  }
}

void LuongAttention::begin_decode(
    const std::vector<tensor::ConstMatrixView>& encoder_outputs,
    std::size_t batch, tensor::Workspace& workspace,
    const std::vector<std::size_t>& source_lengths) {
  bind(encoder_outputs, batch, workspace);
  decode_ = true;
  DESMINE_EXPECTS(source_lengths.size() == batch,
                  "one source length per batch row");
  for (const std::size_t len : source_lengths) {
    DESMINE_EXPECTS(len > 0 && len <= enc_.size(),
                    "source length outside [1, src_len]");
  }
  src_lengths_ = source_lengths;
}

tensor::ConstMatrixView LuongAttention::step(tensor::ConstMatrixView h_dec) {
  DESMINE_EXPECTS(!enc_.empty(), "begin() not called");
  DESMINE_EXPECTS(h_dec.rows() == batch_ && h_dec.cols() == hidden_,
                  "h_dec shape");
  const std::size_t S = enc_.size();

  StepCache cache;
  if (!decode_) {
    // h_dec is copied so the cache survives transient caller buffers.
    cache.h_dec = ws_->alloc(batch_, hidden_);
    cache.h_dec.copy_from(h_dec);
  }

  // Scores: score(b, s) = <h_dec[b], (enc[s] Wa)[b]>.
  cache.align = ws_->alloc(batch_, S);
  const bool masked = !src_lengths_.empty();
  for (std::size_t s = 0; s < S; ++s) {
    const tensor::ConstMatrixView tr = transformed_[s];
    for (std::size_t b = 0; b < batch_; ++b) {
      if (masked && s >= src_lengths_[b]) {
        // Padded position: -inf survives the row max untouched and its
        // exp() contributes an exact 0.0f to the softmax sum, so the valid
        // prefix's weights match the compact (unpadded) decode bit for bit.
        cache.align(b, s) = -std::numeric_limits<float>::infinity();
        continue;
      }
      const float* hd = h_dec.row(b);
      const float* tv = tr.row(b);
      float dot = 0.0f;
      for (std::size_t k = 0; k < hidden_; ++k) dot += hd[k] * tv[k];
      cache.align(b, s) = dot;
    }
  }
  tensor::softmax_rows(cache.align);

  // Context vector and [context; h_dec] concat (relies on the zeroed alloc
  // for the skipped zero-weight accumulations).
  cache.concat = ws_->alloc(batch_, 2 * hidden_);
  for (std::size_t s = 0; s < S; ++s) {
    const tensor::ConstMatrixView e = enc_[s];
    for (std::size_t b = 0; b < batch_; ++b) {
      const float w = cache.align(b, s);
      if (w == 0.0f) continue;
      float* ctx = cache.concat.row(b);
      const float* ev = e.row(b);
      for (std::size_t k = 0; k < hidden_; ++k) ctx[k] += w * ev[k];
    }
  }
  for (std::size_t b = 0; b < batch_; ++b) {
    float* dst = cache.concat.row(b) + hidden_;
    const float* hd = h_dec.row(b);
    for (std::size_t k = 0; k < hidden_; ++k) dst[k] = hd[k];
  }

  cache.attn = ws_->alloc(batch_, hidden_);
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
               cache.concat, wc_.view(), 0.0f, cache.attn);
  cache.attn.apply([](float v) { return std::tanh(v); });
  if (decode_) return cache.attn;

  steps_.push_back(cache);
  backward_cursor_ = steps_.size();
  return steps_.back().attn;
}

tensor::ConstMatrixView LuongAttention::alignment(std::size_t t) const {
  DESMINE_EXPECTS(t < steps_.size(), "alignment step out of range");
  return steps_[t].align;
}

tensor::MatrixView LuongAttention::backward_step(
    tensor::ConstMatrixView d_attn) {
  DESMINE_EXPECTS(backward_cursor_ > 0, "no forward step left to backprop");
  const StepCache& cache = steps_[--backward_cursor_];
  const std::size_t S = enc_.size();

  // dh_dec is the step's output and must outlive the rewind below; the rest
  // is scratch reclaimed when this step's backward is done.
  tensor::MatrixView dh_dec = ws_->alloc(batch_, hidden_);
  const tensor::Workspace::Checkpoint scratch = ws_->checkpoint();

  // Through tanh.
  tensor::MatrixView dpre = ws_->alloc(batch_, hidden_);
  dpre.copy_from(d_attn);
  for (std::size_t idx = 0; idx < dpre.size(); ++idx) {
    const float a = cache.attn.data()[idx];
    dpre.data()[idx] *= (1.0f - a * a);
  }

  // Through the combine layer: attn_pre = concat * Wc.
  tensor::gemm(tensor::Transpose::kTrans, tensor::Transpose::kNo, 1.0f,
               cache.concat, dpre, 1.0f, wc_.grad);
  tensor::MatrixView dconcat = ws_->alloc(batch_, 2 * hidden_);
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kTrans, 1.0f, dpre,
               wc_.view(), 0.0f, dconcat);

  // Split into dcontext (first H) and dh_dec (second H).
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* src = dconcat.row(b) + hidden_;
    float* dst = dh_dec.row(b);
    for (std::size_t k = 0; k < hidden_; ++k) dst[k] = src[k];
  }

  // dalign(b,s) = <dcontext[b], enc[s][b]>; denc[s][b] += align(b,s) dcontext[b].
  tensor::MatrixView dalign = ws_->alloc(batch_, S);
  for (std::size_t s = 0; s < S; ++s) {
    const tensor::ConstMatrixView e = enc_[s];
    tensor::MatrixView de = d_encoder_[s];
    for (std::size_t b = 0; b < batch_; ++b) {
      const float* dctx = dconcat.row(b);
      const float* ev = e.row(b);
      float* dev = de.row(b);
      const float w = cache.align(b, s);
      float dot = 0.0f;
      for (std::size_t k = 0; k < hidden_; ++k) {
        dot += dctx[k] * ev[k];
        dev[k] += w * dctx[k];
      }
      dalign(b, s) = dot;
    }
  }

  // Softmax backward: dscore = align ⊙ (dalign - <align, dalign>).
  tensor::MatrixView dscore = ws_->alloc(batch_, S);
  for (std::size_t b = 0; b < batch_; ++b) {
    float inner = 0.0f;
    for (std::size_t s = 0; s < S; ++s) {
      inner += cache.align(b, s) * dalign(b, s);
    }
    for (std::size_t s = 0; s < S; ++s) {
      dscore(b, s) = cache.align(b, s) * (dalign(b, s) - inner);
    }
  }

  // Through the score: score(b,s) = <h_dec[b], transformed[s][b]>. dtr is
  // re-zeroed per source position, matching the fresh zero matrix the
  // pre-arena code allocated (zero rows are skipped via ds == 0).
  tensor::MatrixView dtr = ws_->alloc(batch_, hidden_);
  for (std::size_t s = 0; s < S; ++s) {
    const tensor::ConstMatrixView tr = transformed_[s];
    const tensor::ConstMatrixView e = enc_[s];
    tensor::MatrixView de = d_encoder_[s];
    dtr.zero();
    for (std::size_t b = 0; b < batch_; ++b) {
      const float ds = dscore(b, s);
      if (ds == 0.0f) continue;
      const float* hd = cache.h_dec.row(b);
      const float* tv = tr.row(b);
      float* dhd = dh_dec.row(b);
      float* dtv = dtr.row(b);
      for (std::size_t k = 0; k < hidden_; ++k) {
        dhd[k] += ds * tv[k];
        dtv[k] = ds * hd[k];
      }
    }
    if (score_ == AttentionScore::kGeneral) {
      // transformed[s] = enc[s] * Wa:
      //   dWa += enc[s]^T dtr; denc[s] += dtr Wa^T.
      tensor::gemm(tensor::Transpose::kTrans, tensor::Transpose::kNo, 1.0f, e,
                   dtr, 1.0f, wa_.grad);
      tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kTrans, 1.0f,
                   dtr, wa_.view(), 1.0f, de);
    } else {
      de += dtr;  // dot score: transformed == enc
    }
  }

  ws_->rewind(scratch);
  return dh_dec;
}

}  // namespace desmine::nn
