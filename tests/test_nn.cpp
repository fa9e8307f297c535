// Unit tests for the nn layers: shapes, determinism, loss values, optimizer
// behaviour, and LSTM state handling.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/adam.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/param.h"
#include "util/error.h"
#include "util/rng.h"

namespace dn = desmine::nn;
namespace dt = desmine::tensor;
using desmine::util::Rng;

// ----------------------------------------------------------- registry ------

TEST(ParamRegistry, CountsAndZeroGrad) {
  dn::Param a("a", 2, 3), b("b", 1, 4);
  a.grad.fill(1.0f);
  b.grad.fill(2.0f);
  dn::ParamRegistry reg;
  reg.add(&a);
  reg.add(&b);
  EXPECT_EQ(reg.scalar_count(), 10u);
  EXPECT_GT(reg.grad_norm(), 0.0);
  reg.zero_grad();
  EXPECT_DOUBLE_EQ(reg.grad_norm(), 0.0);
}

TEST(ParamRegistry, ClipGradNorm) {
  dn::Param a("a", 1, 4);
  a.grad.fill(3.0f);  // norm = 6
  dn::ParamRegistry reg;
  reg.add(&a);
  reg.clip_grad_norm(3.0);
  EXPECT_NEAR(reg.grad_norm(), 3.0, 1e-5);
  // Clipping below the max is a no-op.
  reg.clip_grad_norm(100.0);
  EXPECT_NEAR(reg.grad_norm(), 3.0, 1e-5);
}

// ----------------------------------------------------------- embedding -----

TEST(Embedding, LookupMatchesTable) {
  Rng rng(1);
  dn::Embedding emb(10, 4, rng);
  const auto out = emb.forward({3, 7, 3});
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out(0, c), emb.table().value(3, c));
    EXPECT_FLOAT_EQ(out(2, c), emb.table().value(3, c));
    EXPECT_FLOAT_EQ(out(1, c), emb.table().value(7, c));
  }
}

TEST(Embedding, BackwardAccumulatesPerId) {
  Rng rng(1);
  dn::Embedding emb(5, 2, rng);
  dt::Matrix grad = dt::Matrix::from_rows({{1, 2}, {10, 20}, {100, 200}});
  emb.backward({0, 0, 4}, grad);
  EXPECT_FLOAT_EQ(emb.table().grad(0, 0), 11.0f);  // two rows hit id 0
  EXPECT_FLOAT_EQ(emb.table().grad(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(emb.table().grad(4, 1), 200.0f);
  EXPECT_FLOAT_EQ(emb.table().grad(2, 0), 0.0f);
}

TEST(Embedding, RejectsOutOfRangeIds) {
  Rng rng(1);
  dn::Embedding emb(5, 2, rng);
  EXPECT_THROW(emb.forward({5}), desmine::PreconditionError);
  EXPECT_THROW(emb.forward({-1}), desmine::PreconditionError);
}

// ----------------------------------------------------------- linear --------

TEST(Linear, ForwardComputesXWPlusB) {
  Rng rng(2);
  dn::Linear lin("lin", 2, 3, rng);
  lin.weight().value = dt::Matrix::from_rows({{1, 0, 2}, {0, 1, 3}});
  lin.bias().value = dt::Matrix::from_rows({{10, 20, 30}});
  const auto y = lin.forward(dt::Matrix::from_rows({{1, 2}}));
  EXPECT_FLOAT_EQ(y(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 38.0f);
}

TEST(Linear, NoBiasOption) {
  Rng rng(2);
  dn::Linear lin("lin", 2, 2, rng, /*with_bias=*/false);
  dn::ParamRegistry reg;
  lin.register_params(reg);
  EXPECT_EQ(reg.params().size(), 1u);
}

TEST(Linear, BackwardShapes) {
  Rng rng(2);
  dn::Linear lin("lin", 3, 4, rng);
  const auto x = dt::Matrix(2, 3, 1.0f);
  const auto dy = dt::Matrix(2, 4, 1.0f);
  const auto dx = lin.backward(x, dy);
  EXPECT_EQ(dx.rows(), 2u);
  EXPECT_EQ(dx.cols(), 3u);
  EXPECT_GT(lin.weight().grad.squared_norm(), 0.0);
  EXPECT_GT(lin.bias().grad.squared_norm(), 0.0);
}

// ----------------------------------------------------------- loss ----------

TEST(Loss, UniformLogitsGiveLogV) {
  dt::Matrix logits(1, 4, 0.0f);
  dt::Matrix dlogits;
  const auto res = dn::softmax_xent(logits, {2}, dlogits, 1.0f);
  EXPECT_NEAR(res.loss_sum, std::log(4.0), 1e-6);
  EXPECT_EQ(res.token_count, 1u);
  // Gradient: p - onehot.
  EXPECT_NEAR(dlogits(0, 2), 0.25 - 1.0, 1e-6);
  EXPECT_NEAR(dlogits(0, 0), 0.25, 1e-6);
}

TEST(Loss, PaddedTargetsSkipped) {
  dt::Matrix logits(3, 4, 0.0f);
  dt::Matrix dlogits;
  const auto res = dn::softmax_xent(logits, {1, -1, 2}, dlogits, 1.0f);
  EXPECT_EQ(res.token_count, 2u);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(dlogits(1, c), 0.0f);
}

TEST(Loss, GradScaleApplied) {
  dt::Matrix logits(1, 2, 0.0f);
  dt::Matrix dlogits;
  dn::softmax_xent(logits, {0}, dlogits, 0.5f);
  EXPECT_NEAR(dlogits(0, 0), 0.5 * (0.5 - 1.0), 1e-6);
}

TEST(Loss, ArgmaxRows) {
  const auto logits = dt::Matrix::from_rows({{0, 5, 1}, {9, 2, 3}});
  const auto ids = dn::argmax_rows(logits);
  EXPECT_EQ(ids[0], 1);
  EXPECT_EQ(ids[1], 0);
}

// ----------------------------------------------------------- adam ----------

TEST(Adam, DescendsQuadratic) {
  // Minimize f(x) = x^2 via Adam; gradient = 2x.
  dn::Param p("x", 1, 1);
  p.value(0, 0) = 5.0f;
  dn::ParamRegistry reg;
  reg.add(&p);
  dn::AdamConfig cfg;
  cfg.lr = 0.1f;
  dn::Adam adam(reg, cfg);
  for (int i = 0; i < 500; ++i) {
    p.grad(0, 0) = 2.0f * p.value(0, 0);
    adam.step();
  }
  EXPECT_NEAR(p.value(0, 0), 0.0f, 1e-2f);
  EXPECT_EQ(adam.steps_taken(), 500u);
}

TEST(Adam, FirstStepMagnitudeIsLr) {
  // With bias correction, |first step| ~= lr regardless of gradient scale.
  dn::Param p("x", 1, 1);
  dn::ParamRegistry reg;
  reg.add(&p);
  dn::AdamConfig cfg;
  cfg.lr = 0.05f;
  dn::Adam adam(reg, cfg);
  p.grad(0, 0) = 123.0f;
  adam.step();
  EXPECT_NEAR(std::abs(p.value(0, 0)), 0.05f, 1e-3f);
}

// ----------------------------------------------------------- lstm ----------

TEST(Lstm, OutputShapesAndSteps) {
  Rng rng(3);
  dn::LstmStack lstm("l", 4, 8, 2, rng, 0.0f);
  lstm.begin(3);
  for (int t = 0; t < 5; ++t) {
    const auto& h = lstm.step(dt::Matrix(3, 4, 0.1f));
    EXPECT_EQ(h.rows(), 3u);
    EXPECT_EQ(h.cols(), 8u);
  }
  EXPECT_EQ(lstm.steps(), 5u);
  const auto state = lstm.state();
  EXPECT_EQ(state.h.size(), 2u);
  EXPECT_EQ(state.c.size(), 2u);
}

TEST(Lstm, DeterministicForSameSeed) {
  Rng rng1(7), rng2(7);
  dn::LstmStack a("l", 2, 4, 1, rng1, 0.0f);
  dn::LstmStack b("l", 2, 4, 1, rng2, 0.0f);
  a.begin(1);
  b.begin(1);
  const auto& ha = a.step(dt::Matrix(1, 2, 0.5f));
  const auto& hb = b.step(dt::Matrix(1, 2, 0.5f));
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_FLOAT_EQ(ha.data()[i], hb.data()[i]);
  }
}

TEST(Lstm, InitialStateCarriesOver) {
  Rng rng(9);
  dn::LstmStack lstm("l", 2, 4, 1, rng, 0.0f);
  lstm.begin(1);
  lstm.step(dt::Matrix(1, 2, 1.0f));
  const auto mid = lstm.state();

  // Restarting from `mid` must reproduce continuing the sequence.
  Rng rng2(9);
  dn::LstmStack twin("l", 2, 4, 1, rng2, 0.0f);
  twin.begin(1);
  twin.step(dt::Matrix(1, 2, 1.0f));
  const auto& h_cont = twin.step(dt::Matrix(1, 2, -1.0f));

  lstm.begin(1, &mid);
  const auto& h_resume = lstm.step(dt::Matrix(1, 2, -1.0f));
  for (std::size_t i = 0; i < h_cont.size(); ++i) {
    EXPECT_NEAR(h_resume.data()[i], h_cont.data()[i], 1e-6f);
  }
}

TEST(Lstm, HiddenStaysBounded) {
  Rng rng(4);
  dn::LstmStack lstm("l", 3, 6, 2, rng, 0.0f);
  lstm.begin(2);
  for (int t = 0; t < 50; ++t) {
    const auto& h = lstm.step(dt::Matrix(2, 3, 5.0f));
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_LE(std::abs(h.data()[i]), 1.0f);  // |o * tanh(c)| <= 1
    }
  }
}

TEST(Lstm, BackwardRequiresMatchingSteps) {
  Rng rng(4);
  dn::LstmStack lstm("l", 2, 3, 1, rng, 0.0f);
  lstm.begin(1);
  lstm.step(dt::Matrix(1, 2, 0.0f));
  std::vector<dt::Matrix> dh(2);  // wrong: 2 grads for 1 step
  EXPECT_THROW(lstm.backward(dh), desmine::PreconditionError);
}

TEST(Lstm, DropoutRequiresRng) {
  Rng rng(4);
  dn::LstmStack lstm("l", 2, 3, 1, rng, 0.5f);
  EXPECT_THROW(lstm.begin(1, nullptr, /*train=*/true, nullptr),
               desmine::PreconditionError);
}

TEST(Lstm, DropoutOffAtInference) {
  Rng rng(4);
  dn::LstmStack lstm("l", 2, 3, 1, rng, 0.5f);
  // No rng needed when train=false even with dropout configured.
  lstm.begin(1, nullptr, /*train=*/false);
  EXPECT_NO_THROW(lstm.step(dt::Matrix(1, 2, 1.0f)));
}

// ----------------------------------------------------------- attention -----

TEST(Attention, OutputShapeAndAlignmentSimplex) {
  Rng rng(5);
  dn::LuongAttention attn("a", 4, rng);
  std::vector<dt::Matrix> enc;
  for (int s = 0; s < 3; ++s) {
    dt::Matrix e(2, 4);
    e.init_uniform(rng, 1.0f);
    enc.push_back(e);
  }
  attn.begin({enc.begin(), enc.end()}, 2);
  const auto out = attn.step(dt::Matrix(2, 4, 0.3f));
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 4u);
  const auto& align = attn.alignment(0);
  for (std::size_t b = 0; b < 2; ++b) {
    float sum = 0.0f;
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_GE(align(b, s), 0.0f);
      sum += align(b, s);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Attention, BackwardStepOrderEnforced) {
  Rng rng(5);
  dn::LuongAttention attn("a", 2, rng);
  std::vector<dt::Matrix> enc = {dt::Matrix(1, 2, 0.1f)};
  attn.begin({enc.begin(), enc.end()}, 1);
  attn.step(dt::Matrix(1, 2, 0.2f));
  EXPECT_NO_THROW(attn.backward_step(dt::Matrix(1, 2, 1.0f)));
  EXPECT_THROW(attn.backward_step(dt::Matrix(1, 2, 1.0f)),
               desmine::PreconditionError);
}

TEST(Attention, AttendsToMatchingPosition) {
  // With Wa = I and one encoder position equal to h_dec, that position
  // should get the largest alignment weight.
  Rng rng(6);
  dn::LuongAttention attn("a", 3, rng);
  // Identity Wa.
  dn::ParamRegistry reg;
  attn.register_params(reg);
  dt::Matrix& wa = reg.params()[0]->value;
  wa.zero();
  for (std::size_t i = 0; i < 3; ++i) wa(i, i) = 1.0f;

  std::vector<dt::Matrix> enc = {
      dt::Matrix::from_rows({{-1.0f, -1.0f, -1.0f}}),
      dt::Matrix::from_rows({{2.0f, 2.0f, 2.0f}}),
      dt::Matrix::from_rows({{0.0f, 0.0f, 0.0f}}),
  };
  attn.begin({enc.begin(), enc.end()}, 1);
  attn.step(dt::Matrix::from_rows({{2.0f, 2.0f, 2.0f}}));
  const auto& align = attn.alignment(0);
  EXPECT_GT(align(0, 1), align(0, 0));
  EXPECT_GT(align(0, 1), align(0, 2));
}
