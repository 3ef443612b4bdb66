// MCU deployment profile: the complete proposed system (multi-instance
// OS-ELM autoencoders + Algorithm 1 detector + Algorithms 2-4
// reconstruction) in fixed-capacity float32 storage with ZERO heap
// allocations after construction.
//
// This mirrors what the paper actually ran on the Raspberry Pi Pico:
// float32 weights, statically sized buffers, purely sequential updates.
// Because every dimension is a template parameter, the whole memory story
// is a compile-time fact:
//
//   using FanPipeline = mcu::StaticPipeline<511, 22, 1>;
//   static_assert(sizeof(FanPipeline) < 264 * 1024);   // fits the Pico
//
// State is loaded from a fitted core::Pipeline (trained off-device with the
// double-precision library, shipped via io::checkpoint or directly), after
// which the device runs prediction, drift detection and reconstruction with
// no dynamic memory and no double-precision math on the hot path.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::mcu {

/// Per-step outcome, mirroring core::PipelineStep.
struct StaticStep {
  std::size_t label = 0;
  float score = 0.0f;
  bool drift_detected = false;
  bool reconstructing = false;
  bool reconstruction_finished = false;
};

/// Fixed-capacity float32 implementation of the proposed system.
///
/// kDim    — feature dimensionality (e.g. 38 or 511)
/// kHidden — hidden nodes of every OS-ELM instance (paper: 22)
/// kLabels — number of class labels / autoencoder instances
template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
class StaticPipeline {
  static_assert(kHidden < kDim,
                "autoencoders must be undercomplete (hidden < input)");
  static_assert(kLabels >= 1, "need at least one label");

 public:
  StaticPipeline() = default;

  /// Copies a fitted double-precision pipeline's state, narrowing to
  /// float32. The pipeline's dimensions must match the template caps.
  void load(const core::Pipeline& pipeline);

  bool loaded() const { return loaded_; }

  /// Full Algorithm 1 step: prediction, anomaly gate, window update,
  /// drift check, and — when a drift is active — the Algorithm 2 phases.
  StaticStep process(std::span<const float> x);

  /// Label prediction only (lines 6-7).
  std::size_t predict(std::span<const float> x, float& score_out) const;

  /// Anomaly score of one instance.
  float score_of(std::span<const float> x, std::size_t label) const;

  /// One sequential OS-ELM training step on the given instance.
  void train_label(std::span<const float> x, std::size_t label);

  float theta_error() const { return theta_error_; }
  float theta_drift() const { return theta_drift_; }
  bool reconstructing() const { return recon_count_ > 0; }

  /// Compile-time state size (the quantity checked against the 264 kB
  /// Pico budget).
  static constexpr std::size_t state_bytes() {
    return sizeof(StaticPipeline);
  }

 private:
  void hidden_of(std::span<const float> x,
                 std::array<float, kHidden>& h) const;

  /// Anomaly score of one instance from an already-projected hidden vector
  /// (the fused predict() projects once and scores every label from it).
  float score_from_hidden(const std::array<float, kHidden>& h,
                          std::span<const float> x, std::size_t label) const;

  /// OS-ELM step assuming h_scratch_ already holds the projection of x
  /// (valid right after predict()/score_of() on the same sample).
  void train_with_current_hidden(std::span<const float> x, std::size_t label);

  float recent_distance_sum() const;
  std::size_t nearest_coord(std::span<const float> x) const;
  float coord_spread() const;

  // ---- projection (shared by every instance) ----
  std::array<float, kDim * kHidden> alpha_{};
  std::array<float, kHidden> bias_{};

  // ---- per-instance trainable state ----
  std::array<float, kLabels * kHidden * kDim> beta_{};
  std::array<float, kLabels * kHidden * kHidden> p_{};

  // ---- detector state (Algorithm 1) ----
  std::array<float, kLabels * kDim> trained_centroids_{};
  std::array<float, kLabels * kDim> recent_centroids_{};
  std::array<std::uint32_t, kLabels> counts_{};
  float theta_error_ = 0.0f;
  float theta_drift_ = 0.0f;
  std::uint32_t window_size_ = 100;
  std::uint32_t win_ = 0;
  bool check_ = false;

  // ---- reconstruction state (Algorithms 2-4) ----
  std::array<float, kLabels * kDim> coords_{};
  std::array<std::uint32_t, kLabels> coord_counts_{};
  std::uint32_t recon_count_ = 0;  ///< 0 = idle; otherwise Algorithm 2 count.
  std::uint32_t n_search_ = 0;
  std::uint32_t n_update_ = 0;
  std::uint32_t n_total_ = 0;
  // Eq. 1 re-calibration accumulators (Welford in float).
  std::uint32_t dist_count_ = 0;
  float dist_mean_ = 0.0f;
  float dist_m2_ = 0.0f;
  float z_ = 1.0f;
  float p_prior_ = 100.0f;  ///< 1 / reg_lambda, for post-drift P resets.

  // ---- scratch ----
  mutable std::array<float, kHidden> h_scratch_{};
  mutable std::array<float, kDim> recon_scratch_{};
  std::array<float, kHidden> ph_scratch_{};

  bool loaded_ = false;
};

// ===========================================================================
// implementation
// ===========================================================================

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::load(
    const core::Pipeline& pipeline) {
  EDGEDRIFT_ASSERT(pipeline.fitted(), "load() needs a fitted pipeline");
  const auto& config = pipeline.config();
  EDGEDRIFT_ASSERT(config.input_dim == kDim, "input_dim mismatch");
  EDGEDRIFT_ASSERT(config.hidden_dim == kHidden, "hidden_dim mismatch");
  EDGEDRIFT_ASSERT(config.num_labels == kLabels, "num_labels mismatch");

  const auto& projection = *pipeline.model().projection();
  for (std::size_t d = 0; d < kDim; ++d) {
    for (std::size_t h = 0; h < kHidden; ++h) {
      alpha_[d * kHidden + h] =
          static_cast<float>(projection.alpha()(d, h));
    }
  }
  for (std::size_t h = 0; h < kHidden; ++h) {
    bias_[h] = static_cast<float>(projection.bias()[h]);
  }

  for (std::size_t c = 0; c < kLabels; ++c) {
    const auto& model = pipeline.model();
    for (std::size_t h = 0; h < kHidden; ++h) {
      for (std::size_t d = 0; d < kDim; ++d) {
        beta_[(c * kHidden + h) * kDim + d] =
            static_cast<float>(model.beta(c)(h, d));
      }
      for (std::size_t h2 = 0; h2 < kHidden; ++h2) {
        p_[(c * kHidden + h) * kHidden + h2] =
            static_cast<float>(model.p(c)(h, h2));
      }
    }
  }

  const drift::CentroidDetector* centroid = pipeline.centroid_detector();
  EDGEDRIFT_ASSERT(centroid != nullptr,
                   "StaticPipeline mirrors the centroid detector");
  const auto& detector = *centroid;
  for (std::size_t c = 0; c < kLabels; ++c) {
    for (std::size_t d = 0; d < kDim; ++d) {
      trained_centroids_[c * kDim + d] =
          static_cast<float>(detector.trained_centroids()(c, d));
      recent_centroids_[c * kDim + d] =
          static_cast<float>(detector.recent_centroids()(c, d));
    }
    counts_[c] = static_cast<std::uint32_t>(detector.counts()[c]);
  }
  theta_error_ = static_cast<float>(pipeline.theta_error());
  theta_drift_ = static_cast<float>(detector.theta_drift());
  window_size_ = static_cast<std::uint32_t>(config.window_size);
  z_ = static_cast<float>(config.z);
  n_search_ = static_cast<std::uint32_t>(config.reconstruction.n_search);
  n_update_ = static_cast<std::uint32_t>(config.reconstruction.n_update);
  n_total_ = static_cast<std::uint32_t>(config.reconstruction.n_total);
  p_prior_ = static_cast<float>(1.0 / config.reg_lambda);
  win_ = 0;
  check_ = false;
  recon_count_ = 0;
  loaded_ = true;
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::hidden_of(
    std::span<const float> x, std::array<float, kHidden>& h) const {
  for (std::size_t j = 0; j < kHidden; ++j) h[j] = bias_[j];
  for (std::size_t d = 0; d < kDim; ++d) {
    const float xd = x[d];
    if (xd == 0.0f) continue;
    const float* arow = alpha_.data() + d * kHidden;
    for (std::size_t j = 0; j < kHidden; ++j) h[j] += xd * arow[j];
  }
  for (std::size_t j = 0; j < kHidden; ++j) {
    h[j] = 1.0f / (1.0f + std::exp(-h[j]));  // Sigmoid, as the paper uses.
  }
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
float StaticPipeline<kDim, kHidden, kLabels>::score_from_hidden(
    const std::array<float, kHidden>& h, std::span<const float> x,
    std::size_t label) const {
  const float* beta = beta_.data() + label * kHidden * kDim;
  float acc = 0.0f;
  for (std::size_t d = 0; d < kDim; ++d) recon_scratch_[d] = 0.0f;
  for (std::size_t hi = 0; hi < kHidden; ++hi) {
    const float hv = h[hi];
    const float* brow = beta + hi * kDim;
    for (std::size_t d = 0; d < kDim; ++d) {
      recon_scratch_[d] += hv * brow[d];
    }
  }
  for (std::size_t d = 0; d < kDim; ++d) {
    const float delta = x[d] - recon_scratch_[d];
    acc += delta * delta;
  }
  return acc / static_cast<float>(kDim);
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
float StaticPipeline<kDim, kHidden, kLabels>::score_of(
    std::span<const float> x, std::size_t label) const {
  hidden_of(x, h_scratch_);
  return score_from_hidden(h_scratch_, x, label);
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
std::size_t StaticPipeline<kDim, kHidden, kLabels>::predict(
    std::span<const float> x, float& score_out) const {
  // Fused ensemble scoring: the projection is shared by every instance, so
  // compute it once and score all kLabels instances from it (the per-label
  // path recomputed it kLabels times). h_scratch_ still holds the sample's
  // hidden vector afterwards, which the training path reuses.
  hidden_of(x, h_scratch_);
  std::size_t best = 0;
  float best_score = score_from_hidden(h_scratch_, x, 0);
  for (std::size_t c = 1; c < kLabels; ++c) {
    const float s = score_from_hidden(h_scratch_, x, c);
    if (s < best_score) {
      best_score = s;
      best = c;
    }
  }
  score_out = best_score;
  return best;
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::train_label(
    std::span<const float> x, std::size_t label) {
  hidden_of(x, h_scratch_);
  train_with_current_hidden(x, label);
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::train_with_current_hidden(
    std::span<const float> x, std::size_t label) {
  float* p = p_.data() + label * kHidden * kHidden;
  // ph = P h; hph = h^T P h.
  float hph = 0.0f;
  for (std::size_t i = 0; i < kHidden; ++i) {
    const float* prow = p + i * kHidden;
    float acc = 0.0f;
    for (std::size_t j = 0; j < kHidden; ++j) acc += prow[j] * h_scratch_[j];
    ph_scratch_[i] = acc;
    hph += h_scratch_[i] * acc;
  }
  const float denom = 1.0f + hph;
  // P <- P - ph ph^T / denom.
  const float inv = 1.0f / denom;
  for (std::size_t i = 0; i < kHidden; ++i) {
    const float phi = ph_scratch_[i] * inv;
    float* prow = p + i * kHidden;
    for (std::size_t j = 0; j < kHidden; ++j) {
      prow[j] -= phi * ph_scratch_[j];
    }
  }
  // ph_new = P_new h.
  for (std::size_t i = 0; i < kHidden; ++i) {
    const float* prow = p + i * kHidden;
    float acc = 0.0f;
    for (std::size_t j = 0; j < kHidden; ++j) acc += prow[j] * h_scratch_[j];
    ph_scratch_[i] = acc;
  }
  // beta <- beta + ph_new (x - beta^T h)^T, computed row-wise.
  float* beta = beta_.data() + label * kHidden * kDim;
  for (std::size_t d = 0; d < kDim; ++d) recon_scratch_[d] = x[d];
  for (std::size_t h = 0; h < kHidden; ++h) {
    const float hv = h_scratch_[h];
    const float* brow = beta + h * kDim;
    for (std::size_t d = 0; d < kDim; ++d) {
      recon_scratch_[d] -= hv * brow[d];
    }
  }
  for (std::size_t h = 0; h < kHidden; ++h) {
    const float scale = ph_scratch_[h];
    float* brow = beta + h * kDim;
    for (std::size_t d = 0; d < kDim; ++d) {
      brow[d] += scale * recon_scratch_[d];
    }
  }
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
float StaticPipeline<kDim, kHidden, kLabels>::recent_distance_sum() const {
  float total = 0.0f;
  for (std::size_t i = 0; i < kLabels * kDim; ++i) {
    total += std::fabs(recent_centroids_[i] - trained_centroids_[i]);
  }
  return total;
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
std::size_t StaticPipeline<kDim, kHidden, kLabels>::nearest_coord(
    std::span<const float> x) const {
  std::size_t best = 0;
  float best_d = 0.0f;
  for (std::size_t c = 0; c < kLabels; ++c) {
    const float* coord = coords_.data() + c * kDim;
    float d = 0.0f;
    for (std::size_t j = 0; j < kDim; ++j) {
      const float delta = x[j] - coord[j];
      d += delta * delta;
    }
    if (c == 0 || d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
float StaticPipeline<kDim, kHidden, kLabels>::coord_spread() const {
  float total = 0.0f;
  for (std::size_t a = 0; a < kLabels; ++a) {
    for (std::size_t b = a + 1; b < kLabels; ++b) {
      const float* ca = coords_.data() + a * kDim;
      const float* cb = coords_.data() + b * kDim;
      for (std::size_t j = 0; j < kDim; ++j) {
        total += std::fabs(ca[j] - cb[j]);
      }
    }
  }
  return total;
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
StaticStep StaticPipeline<kDim, kHidden, kLabels>::process(
    std::span<const float> x) {
  EDGEDRIFT_ASSERT(loaded_, "process() before load()");
  EDGEDRIFT_ASSERT(x.size() == kDim, "sample dim mismatch");
  StaticStep step;

  // ---- reconstruction in progress (Algorithm 2) ----
  if (recon_count_ > 0) {
    step.reconstructing = true;
    const std::uint32_t count = recon_count_++;
    if (count >= n_total_) {
      // Done. First re-align the rebuilt clusters with the pre-drift label
      // identities: greedily match each old trained centroid to its
      // nearest rebuilt coordinate and permute coordinates plus instance
      // state together. Swaps are element-wise so no block-sized temporary
      // is ever needed (the fan config's beta block alone is ~45k floats).
      std::array<std::size_t, kLabels> perm{};
      {
        std::array<bool, kLabels> used{};
        for (std::size_t label = 0; label < kLabels; ++label) {
          float best = 0.0f;
          std::size_t pick = kLabels;
          for (std::size_t j = 0; j < kLabels; ++j) {
            if (used[j]) continue;
            const float* t = trained_centroids_.data() + label * kDim;
            const float* c = coords_.data() + j * kDim;
            float d = 0.0f;
            for (std::size_t k = 0; k < kDim; ++k) {
              const float delta = t[k] - c[k];
              d += delta * delta;
            }
            if (pick == kLabels || d < best) {
              best = d;
              pick = j;
            }
          }
          used[pick] = true;
          perm[label] = pick;
        }
      }
      // Apply the permutation with in-place transpositions.
      auto swap_blocks = [this](std::size_t a, std::size_t b) {
        for (std::size_t k = 0; k < kDim; ++k) {
          std::swap(coords_[a * kDim + k], coords_[b * kDim + k]);
        }
        std::swap(coord_counts_[a], coord_counts_[b]);
        for (std::size_t k = 0; k < kHidden * kDim; ++k) {
          std::swap(beta_[a * kHidden * kDim + k],
                    beta_[b * kHidden * kDim + k]);
        }
        for (std::size_t k = 0; k < kHidden * kHidden; ++k) {
          std::swap(p_[a * kHidden * kHidden + k],
                    p_[b * kHidden * kHidden + k]);
        }
      };
      for (std::size_t i = 0; i < kLabels; ++i) {
        while (perm[i] != i) {
          swap_blocks(i, perm[i]);
          std::swap(perm[i], perm[perm[i]]);
        }
      }
      // Coords become the new trained centroids, Eq. 1 re-arms.
      for (std::size_t i = 0; i < kLabels * kDim; ++i) {
        trained_centroids_[i] = coords_[i];
        recent_centroids_[i] = coords_[i];
      }
      for (std::size_t c = 0; c < kLabels; ++c) counts_[c] = 0;
      if (dist_count_ > 1) {
        const float variance =
            dist_m2_ / static_cast<float>(dist_count_);
        theta_drift_ =
            dist_mean_ + z_ * std::sqrt(variance > 0.0f ? variance : 0.0f);
      }
      recon_count_ = 0;
      check_ = false;
      win_ = 0;
      step.reconstruction_finished = true;
      step.label = predict(x, step.score);
      return step;
    }
    if (count < n_search_) {
      // Algorithm 3: first kLabels samples seed directly; later ones
      // substitute if they raise the pairwise spread.
      if (count <= kLabels) {
        float* coord = coords_.data() + ((count - 1) % kLabels) * kDim;
        for (std::size_t j = 0; j < kDim; ++j) coord[j] = x[j];
        coord_counts_[(count - 1) % kLabels] = 1;
      } else {
        const float base = coord_spread();
        float best = base;
        int chosen = -1;
        std::array<float, kDim> saved;
        for (std::size_t c = 0; c < kLabels; ++c) {
          float* coord = coords_.data() + c * kDim;
          for (std::size_t j = 0; j < kDim; ++j) {
            saved[j] = coord[j];
            coord[j] = x[j];
          }
          const float candidate = coord_spread();
          for (std::size_t j = 0; j < kDim; ++j) coord[j] = saved[j];
          if (candidate > best) {
            best = candidate;
            chosen = static_cast<int>(c);
          }
        }
        if (chosen >= 0) {
          float* coord = coords_.data() + chosen * kDim;
          for (std::size_t j = 0; j < kDim; ++j) coord[j] = x[j];
          coord_counts_[static_cast<std::size_t>(chosen)] = 1;
        }
      }
    } else if (count < n_update_) {
      // Algorithm 4: sequential k-means refinement.
      const std::size_t c = nearest_coord(x);
      float* coord = coords_.data() + c * kDim;
      const float n = static_cast<float>(coord_counts_[c]);
      const float inv = 1.0f / (n + 1.0f);
      for (std::size_t j = 0; j < kDim; ++j) {
        coord[j] = (coord[j] * n + x[j]) * inv;
      }
      ++coord_counts_[c];
    } else {
      // Algorithm 2 lines 8-12: retrain, by nearest coord for the first
      // half, by model prediction afterwards. Either way the sample is
      // projected exactly once: predict() leaves its hidden vector in
      // h_scratch_ and the training step picks it up from there.
      std::size_t label;
      if (count < n_total_ / 2) {
        label = nearest_coord(x);
        hidden_of(x, h_scratch_);
      } else {
        float ignored;
        label = predict(x, ignored);
      }
      train_with_current_hidden(x, label);
      // Eq. 1 accumulators against the rebuilt coordinates.
      const float* coord = coords_.data() + label * kDim;
      float d = 0.0f;
      for (std::size_t j = 0; j < kDim; ++j) {
        d += std::fabs(x[j] - coord[j]);
      }
      ++dist_count_;
      const float delta = d - dist_mean_;
      dist_mean_ += delta / static_cast<float>(dist_count_);
      dist_m2_ += delta * (d - dist_mean_);
    }
    step.label = predict(x, step.score);
    return step;
  }

  // ---- Algorithm 1 main loop ----
  step.label = predict(x, step.score);
  if (!check_ && step.score >= theta_error_) {
    check_ = true;
    win_ = 0;
  }
  if (check_ && win_ < window_size_) {
    float* recent = recent_centroids_.data() + step.label * kDim;
    const float n = static_cast<float>(counts_[step.label]);
    const float inv = 1.0f / (n + 1.0f);
    for (std::size_t j = 0; j < kDim; ++j) {
      recent[j] = (recent[j] * n + x[j]) * inv;
    }
    ++counts_[step.label];
    ++win_;
    if (win_ == window_size_) {
      if (recent_distance_sum() >= theta_drift_) {
        step.drift_detected = true;
        // Enter reconstruction seeded from the recent centroids.
        for (std::size_t i = 0; i < kLabels * kDim; ++i) {
          coords_[i] = recent_centroids_[i];
        }
        for (std::size_t c = 0; c < kLabels; ++c) coord_counts_[c] = 0;
        // Reset every instance to the sequential prior (beta = 0,
        // P = I / lambda approximated by a large prior).
        for (auto& b : beta_) b = 0.0f;
        for (auto& pv : p_) pv = 0.0f;
        for (std::size_t c = 0; c < kLabels; ++c) {
          float* p = p_.data() + c * kHidden * kHidden;
          for (std::size_t h = 0; h < kHidden; ++h) {
            p[h * kHidden + h] = p_prior_;
          }
        }
        dist_count_ = 0;
        dist_mean_ = 0.0f;
        dist_m2_ = 0.0f;
        recon_count_ = 1;
      }
      check_ = false;
    }
  }
  return step;
}

}  // namespace edgedrift::mcu
