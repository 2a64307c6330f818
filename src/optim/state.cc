// Optimizer state serialization for checkpointing. The shared helpers
// handle the MlpGrads-shaped buffers (momentum, Adam moments, Adagrad
// accumulators); each optimizer's SaveState/LoadState composes them with
// its scalar counters. Format is self-describing enough to validate
// against the live network's shapes on load. CheckGradShapes guards the
// same shapes on every Step().

#include <cstring>

#include "src/optim/optimizer.h"
#include "src/util/binary_io.h"
#include "src/util/check.h"

namespace sampnn {

void CheckGradShapes(const Mlp& net, const MlpGrads& grads) {
  SAMPNN_CHECK_EQ(grads.size(), net.num_layers());
  for (size_t k = 0; k < grads.size(); ++k) {
    const Layer& layer = net.layer(k);
    SAMPNN_CHECK_EQ(grads[k].weights.rows(), layer.weights().rows());
    SAMPNN_CHECK_EQ(grads[k].weights.cols(), layer.weights().cols());
    SAMPNN_CHECK_EQ(grads[k].bias.size(), layer.bias().size());
  }
}

Status SaveGradsShapedState(std::ostream& out, const MlpGrads& grads) {
  WriteU64(out, grads.size());
  for (const LayerGrads& g : grads) {
    WriteU64(out, g.weights.rows());
    WriteU64(out, g.weights.cols());
    WriteFloats(out, {g.weights.data(), g.weights.size()});
    WriteFloats(out, {g.bias.data(), g.bias.size()});
  }
  if (!out) return Status::IOError("optimizer state write failure");
  return Status::OK();
}

Status LoadGradsShapedState(std::istream& in, const Mlp& net,
                            MlpGrads* grads) {
  SAMPNN_CHECK(grads != nullptr);
  SAMPNN_ASSIGN_OR_RETURN(uint64_t num_layers, ReadU64(in));
  if (num_layers == 0) {
    // Saved before the first Step(): restore the lazy-uninitialized state.
    grads->clear();
    return Status::OK();
  }
  if (num_layers != net.num_layers()) {
    return Status::InvalidArgument(
        "optimizer state has " + std::to_string(num_layers) +
        " layers, network has " + std::to_string(net.num_layers()));
  }
  MlpGrads loaded = net.ZeroGrads();
  std::vector<float> buf;
  for (size_t k = 0; k < loaded.size(); ++k) {
    LayerGrads& g = loaded[k];
    SAMPNN_ASSIGN_OR_RETURN(uint64_t rows, ReadU64(in));
    SAMPNN_ASSIGN_OR_RETURN(uint64_t cols, ReadU64(in));
    if (rows != g.weights.rows() || cols != g.weights.cols()) {
      return Status::InvalidArgument(
          "optimizer state layer " + std::to_string(k) +
          " shape mismatch: " + std::to_string(rows) + "x" +
          std::to_string(cols) + " vs network " +
          std::to_string(g.weights.rows()) + "x" +
          std::to_string(g.weights.cols()));
    }
    SAMPNN_RETURN_NOT_OK(ReadFloats(in, &buf));
    if (buf.size() != g.weights.size()) {
      return Status::InvalidArgument("optimizer state layer " +
                                     std::to_string(k) +
                                     " weight buffer size mismatch");
    }
    std::memcpy(g.weights.data(), buf.data(), buf.size() * sizeof(float));
    SAMPNN_RETURN_NOT_OK(ReadFloats(in, &buf));
    if (buf.size() != g.bias.size()) {
      return Status::InvalidArgument("optimizer state layer " +
                                     std::to_string(k) +
                                     " bias buffer size mismatch");
    }
    std::memcpy(g.bias.data(), buf.data(), buf.size() * sizeof(float));
  }
  *grads = std::move(loaded);
  return Status::OK();
}

Status SgdOptimizer::SaveState(std::ostream& out) const {
  return SaveGradsShapedState(out, velocity_);
}

Status SgdOptimizer::LoadState(std::istream& in, const Mlp& net) {
  return LoadGradsShapedState(in, net, &velocity_);
}

Status AdamOptimizer::SaveState(std::ostream& out) const {
  WriteU64(out, static_cast<uint64_t>(t_));
  SAMPNN_RETURN_NOT_OK(SaveGradsShapedState(out, m_));
  return SaveGradsShapedState(out, v_);
}

Status AdamOptimizer::LoadState(std::istream& in, const Mlp& net) {
  SAMPNN_ASSIGN_OR_RETURN(uint64_t t, ReadU64(in));
  MlpGrads m, v;
  SAMPNN_RETURN_NOT_OK(LoadGradsShapedState(in, net, &m));
  SAMPNN_RETURN_NOT_OK(LoadGradsShapedState(in, net, &v));
  if (m.size() != v.size()) {
    return Status::InvalidArgument("adam state m/v layer count mismatch");
  }
  t_ = static_cast<long long>(t);
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

Status AdagradOptimizer::SaveState(std::ostream& out) const {
  return SaveGradsShapedState(out, accum_);
}

Status AdagradOptimizer::LoadState(std::istream& in, const Mlp& net) {
  return LoadGradsShapedState(in, net, &accum_);
}

}  // namespace sampnn
