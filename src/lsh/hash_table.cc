#include "src/lsh/hash_table.h"

#include <algorithm>
#include <bit>

#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/util/binary_io.h"
#include "src/util/check.h"

namespace sampnn {

StatusOr<LshFamily> LshFamilyFromString(const std::string& name) {
  if (name == "srp") return LshFamily::kSrp;
  if (name == "wta") return LshFamily::kWta;
  return Status::InvalidArgument("unknown LSH family: " + name);
}

const char* LshFamilyToString(LshFamily family) {
  switch (family) {
    case LshFamily::kSrp:
      return "srp";
    case LshFamily::kWta:
      return "wta";
  }
  return "unknown";
}

StatusOr<AlshIndex> AlshIndex::Create(size_t dim,
                                      const AlshIndexOptions& options,
                                      uint64_t seed) {
  if (dim == 0) return Status::InvalidArgument("AlshIndex: dim must be > 0");
  if (options.tables == 0) {
    return Status::InvalidArgument("AlshIndex: tables must be >= 1");
  }
  SAMPNN_ASSIGN_OR_RETURN(AlshTransform transform,
                          AlshTransform::Create(options.transform));
  Rng rng(seed);
  std::optional<SrpHash> srp;
  std::vector<WtaHash> wta;
  const size_t tdim = transform.TransformedDim(dim);
  if (options.family == LshFamily::kSrp) {
    SAMPNN_ASSIGN_OR_RETURN(
        SrpHash h, SrpHash::Create(tdim, options.bits, rng, options.tables));
    srp.emplace(std::move(h));
  } else {
    // WTA: `bits` budgets the code width; each sub-hash spends
    // log2(window) bits.
    const size_t bits_per = std::bit_width(options.wta_window) - 1;
    if (bits_per == 0 || options.bits < bits_per) {
      return Status::InvalidArgument(
          "AlshIndex: bits too small for the WTA window");
    }
    wta.reserve(options.tables);
    for (size_t t = 0; t < options.tables; ++t) {
      SAMPNN_ASSIGN_OR_RETURN(
          WtaHash h, WtaHash::Create(tdim, options.bits / bits_per,
                                     options.wta_window, rng));
      wta.push_back(std::move(h));
    }
  }
  return AlshIndex(dim, options, std::move(transform), std::move(srp),
                   std::move(wta), rng.NextU64());
}

AlshIndex::AlshIndex(size_t dim, const AlshIndexOptions& options,
                     AlshTransform transform, std::optional<SrpHash> srp,
                     std::vector<WtaHash> wta, uint64_t reservoir_seed)
    : dim_(dim),
      options_(options),
      transform_(std::move(transform)),
      srp_(std::move(srp)),
      wta_(std::move(wta)),
      reservoir_rng_(reservoir_seed) {
  const uint32_t num_buckets =
      srp_ ? srp_->num_buckets() : wta_.front().num_buckets();
  buckets_.assign(options_.tables,
                  std::vector<std::vector<uint32_t>>(num_buckets));
}

void AlshIndex::Codes(std::span<const float> transformed,
                      std::span<uint32_t> codes) const {
  if (srp_) {
    srp_->HashAll(transformed, codes);
    return;
  }
  for (size_t t = 0; t < wta_.size(); ++t) codes[t] = wta_[t].Hash(transformed);
}

void AlshIndex::Build(const Matrix& w) {
  SAMPNN_CHECK_EQ(w.rows(), dim_);
  for (auto& table : buckets_) {
    for (auto& bucket : table) bucket.clear();
  }
  transform_.FitScaleFromColumns(w);
  num_items_ = w.cols();

  // Columns are transformed a block at a time: 64 columns of P(w) are
  // ~250 KB at the paper's width, so the block stays cache-resident while
  // it is hashed.
  constexpr size_t kColumnBlock = 64;
  const size_t tdim = transform_.TransformedDim(dim_);
  std::vector<float> block(kColumnBlock * tdim);
  std::vector<uint32_t> codes(buckets_.size());
  for (size_t j0 = 0; j0 < w.cols(); j0 += kColumnBlock) {
    const size_t j1 = std::min(w.cols(), j0 + kColumnBlock);
    const std::span<float> transformed(block.data(), (j1 - j0) * tdim);
    transform_.TransformColumns(w, j0, j1, transformed);
    for (size_t j = j0; j < j1; ++j) {
      Codes(transformed.subspan((j - j0) * tdim, tdim), codes);
      for (size_t t = 0; t < buckets_.size(); ++t) {
        auto& bucket = buckets_[t][codes[t]];
        if (options_.max_bucket_size > 0 &&
            bucket.size() >= options_.max_bucket_size) {
          // Reservoir replacement keeps each item equally likely to survive.
          const uint64_t slot = reservoir_rng_.NextBounded(bucket.size() + 1);
          if (slot < bucket.size()) {
            bucket[slot] = static_cast<uint32_t>(j);
          }
        } else {
          bucket.push_back(static_cast<uint32_t>(j));
        }
      }
    }
  }
  ++build_count_;
}

void AlshIndex::Query(std::span<const float> a, std::vector<uint32_t>* out,
                      QueryScratch* scratch) const {
  SAMPNN_CHECK(out != nullptr);
  SAMPNN_CHECK(scratch != nullptr);
  SAMPNN_CHECK_EQ(a.size(), dim_);
  out->clear();
  if (num_items_ == 0) return;
  scratch->transformed.resize(transform_.TransformedDim(dim_));
  scratch->codes.resize(buckets_.size());
  transform_.TransformQuery(a, scratch->transformed);
  Codes(scratch->transformed, scratch->codes);
  const bool telemetry = TelemetryEnabled();
  for (size_t t = 0; t < buckets_.size(); ++t) {
    const auto& bucket = buckets_[t][scratch->codes[t]];
    out->insert(out->end(), bucket.begin(), bucket.end());
    if (telemetry) {
      static Histogram& h =
          MetricsRegistry::Get().GetHistogram("lsh.probe.bucket_size");
      h.Observe(bucket.size());
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  if (telemetry) {
    static Histogram& h =
        MetricsRegistry::Get().GetHistogram("lsh.query.active");
    h.Observe(out->size());
  }
}

Status AlshIndex::SaveState(std::ostream& out) const {
  WriteU64(out, num_items_);
  WriteU64(out, build_count_);
  WriteF32(out, transform_.scale());
  WriteRngState(out, reservoir_rng_.GetState());
  WriteU64(out, buckets_.size());
  for (const auto& table : buckets_) {
    WriteU64(out, table.size());
    for (const auto& bucket : table) {
      WriteU32s(out, bucket);
    }
  }
  if (!out) return Status::IOError("ALSH index state write failure");
  return Status::OK();
}

Status AlshIndex::LoadState(std::istream& in) {
  SAMPNN_ASSIGN_OR_RETURN(uint64_t num_items, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(uint64_t build_count, ReadU64(in));
  SAMPNN_ASSIGN_OR_RETURN(float scale, ReadF32(in));
  SAMPNN_ASSIGN_OR_RETURN(RngState reservoir_state, ReadRngState(in));
  SAMPNN_ASSIGN_OR_RETURN(uint64_t num_tables, ReadU64(in));
  if (num_tables != buckets_.size()) {
    return Status::InvalidArgument(
        "ALSH state has " + std::to_string(num_tables) + " tables, index has " +
        std::to_string(buckets_.size()));
  }
  std::vector<std::vector<std::vector<uint32_t>>> loaded(num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    SAMPNN_ASSIGN_OR_RETURN(uint64_t num_buckets, ReadU64(in));
    if (num_buckets != buckets_[t].size()) {
      return Status::InvalidArgument(
          "ALSH state table " + std::to_string(t) + " has " +
          std::to_string(num_buckets) + " buckets, index has " +
          std::to_string(buckets_[t].size()));
    }
    loaded[t].resize(num_buckets);
    for (size_t b = 0; b < num_buckets; ++b) {
      SAMPNN_RETURN_NOT_OK(ReadU32s(in, &loaded[t][b]));
      for (uint32_t id : loaded[t][b]) {
        if (id >= num_items) {
          return Status::InvalidArgument(
              "ALSH state bucket item " + std::to_string(id) +
              " out of range (num_items=" + std::to_string(num_items) + ")");
        }
      }
    }
  }
  num_items_ = num_items;
  build_count_ = build_count;
  transform_.SetScale(scale);
  reservoir_rng_.SetState(reservoir_state);
  buckets_ = std::move(loaded);
  return Status::OK();
}

AlshIndexStats AlshIndex::ComputeStats() const {
  AlshIndexStats stats;
  stats.num_items = num_items_;
  stats.num_tables = buckets_.size();
  stats.buckets_per_table = buckets_.empty() ? 0 : buckets_[0].size();
  size_t total_occupancy = 0;
  for (const auto& table : buckets_) {
    for (const auto& bucket : table) {
      if (bucket.empty()) continue;
      ++stats.nonempty_buckets;
      total_occupancy += bucket.size();
      stats.max_bucket_occupancy =
          std::max(stats.max_bucket_occupancy, bucket.size());
    }
  }
  stats.avg_nonempty_occupancy =
      stats.nonempty_buckets == 0
          ? 0.0
          : static_cast<double>(total_occupancy) / stats.nonempty_buckets;
  return stats;
}

}  // namespace sampnn
