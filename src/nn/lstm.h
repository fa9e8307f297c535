// Multi-layer LSTM with explicit backpropagation through time.
//
// The stack is driven step by step (the seq2seq decoder must interleave
// attention between steps), caching all activations; backward() then runs
// full BPTT given per-step gradients on the top-layer outputs. Gates are
// fused into one (dim x 4H) GEMM per layer per step in [i f g o] order and
// activated through the backend-dispatched tensor::lstm_gate_fusion kernel.
// Dropout (inverted) is applied to each layer's input during training, i.e.
// to the non-recurrent connections, following Luong et al.'s setup.
//
// Activations and per-timestep caches live in a tensor::Workspace: pass one
// to begin() (shared with attention/seq2seq and rewound by the owner between
// sequences) or let the stack fall back to an internal arena. After warm-up
// the sequence loop performs no heap allocation. Views returned by step()/
// backward() are valid until that workspace is next rewound.
//
// A greedy decode never runs backward, so begin_decode() keeps no backward
// state: each layer's h/c live in two slots allocated once, step t writing
// slot t % 2 over the state of step t - 2, and the gates are per-step
// scratch. Its workspace footprint does not grow with the step count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/param.h"
#include "tensor/matrix.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace desmine::nn {

/// Hidden/cell state of every layer; each matrix is (batch x hidden).
struct LstmState {
  std::vector<tensor::Matrix> h;
  std::vector<tensor::Matrix> c;

  bool empty() const { return h.empty(); }
};

class LstmStack {
 public:
  LstmStack(const std::string& name, std::size_t input_dim,
            std::size_t hidden_dim, std::size_t num_layers, util::Rng& rng,
            float dropout = 0.0f, float init_scale = 0.1f,
            WeightStorage storage = WeightStorage::kOwned);

  /// Reset caches and set the initial state (zero state if `init` is empty).
  /// `train` enables dropout; `dropout_rng` must outlive the sequence when
  /// training with dropout > 0. `workspace`, if given, backs all caches for
  /// this sequence (the caller rewinds it between sequences; begin() never
  /// rewinds a shared workspace). With no workspace an internal arena is
  /// used and reset here.
  void begin(std::size_t batch, const LstmState* init = nullptr,
             bool train = false, util::Rng* dropout_rng = nullptr,
             tensor::Workspace* workspace = nullptr);

  /// Start an inference-only sequence that keeps no backward state (see the
  /// file comment): backward() throws, and a view step() returns is valid
  /// only until the second step() after it.
  void begin_decode(std::size_t batch, const LstmState* init,
                    tensor::Workspace& workspace);

  /// Advance one timestep with input (batch x input_dim); returns the
  /// top-layer hidden output (batch x hidden). The per-step math is the
  /// same in both modes, so a decode is bit-identical to a cached pass.
  tensor::ConstMatrixView step(tensor::ConstMatrixView x_t);

  /// Number of steps taken since begin().
  std::size_t steps() const { return steps_; }

  /// Undo the most recent step() for the flagged batch rows: their h/c (all
  /// layers) are restored to the previous step's values, so a frozen row's
  /// state is exactly what it was when it froze. This is how a ragged batch
  /// is encoded in lock-step — rows past their own source length keep
  /// stepping on padding, then have the step rolled back — keeping each
  /// row's final state bit-identical to encoding it alone. Inference only:
  /// the overwritten caches make a subsequent backward() meaningless.
  void retain_rows(const std::vector<std::uint8_t>& frozen);

  /// Current (last-step) state of all layers (owned copies).
  LstmState state() const;

  struct BackwardResult {
    /// Gradient w.r.t. the input of each step (workspace-backed).
    std::vector<tensor::MatrixView> dx;
    /// Gradient w.r.t. the initial state passed to begin().
    LstmState dstate0;
  };

  /// Run BPTT. `dh_top[t]` is dL/d output(t); pass an empty view/matrix for
  /// steps without a loss term. `dfinal`, if non-null, adds gradient on the
  /// final state (used when the encoder's last state seeds the decoder).
  /// Parameter gradients accumulate into the registry's Params.
  BackwardResult backward(const std::vector<tensor::ConstMatrixView>& dh_top,
                          const LstmState* dfinal = nullptr);
  BackwardResult backward(const std::vector<tensor::MatrixView>& dh_top,
                          const LstmState* dfinal = nullptr);
  BackwardResult backward(const std::vector<tensor::Matrix>& dh_top,
                          const LstmState* dfinal = nullptr);

  void register_params(ParamRegistry& reg);

 private:
  struct Layer {
    Param wx;  ///< (layer_input_dim x 4H)
    Param wh;  ///< (H x 4H)
    Param b;   ///< (1 x 4H)
  };

  /// Everything one backward step needs, for one layer at one timestep.
  /// All views point into the sequence workspace.
  struct LayerCache {
    tensor::MatrixView input;  ///< layer input after dropout (batch x in)
    tensor::MatrixView mask;   ///< dropout mask (empty when not training)
    tensor::MatrixView i, f, g, o;  ///< post-activation gates (batch x H)
    tensor::MatrixView c;       ///< new cell state
    tensor::MatrixView tanh_c;  ///< tanh(c)
    tensor::MatrixView h;       ///< new hidden state
  };

  /// Cache of layer l at timestep t (row-major in t; a decode's two slots
  /// alternate by step parity).
  LayerCache& cache_at(std::size_t t, std::size_t l) {
    return caches_[(decode_ ? t % 2 : t) * layers_.size() + l];
  }
  const LayerCache& cache_at(std::size_t t, std::size_t l) const {
    return caches_[(decode_ ? t % 2 : t) * layers_.size() + l];
  }

  void step_layer(std::size_t l, tensor::ConstMatrixView input,
                  tensor::ConstMatrixView h_prev,
                  tensor::ConstMatrixView c_prev, LayerCache& cache);

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  float dropout_;
  std::vector<Layer> layers_;

  // Per-sequence scratch (reset by begin()).
  std::size_t batch_ = 0;
  bool train_ = false;
  bool decode_ = false;  ///< begin_decode(): no backward state kept
  std::size_t steps_ = 0;
  util::Rng* dropout_rng_ = nullptr;
  tensor::Workspace* ws_ = nullptr;
  tensor::Workspace own_ws_;
  LstmState state0_;
  std::vector<LayerCache> caches_;  ///< flat [t * L + l]; 2L in a decode
};

}  // namespace desmine::nn
