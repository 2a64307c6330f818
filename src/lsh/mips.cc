#include "src/lsh/mips.h"

#include <algorithm>
#include <numeric>

#include "src/tensor/kernels.h"
#include "src/util/check.h"

namespace sampnn {

namespace {

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  return v;
}

// Exact inner products <x, M_{*j}> for j in `cols`, written to dots[j]. All
// rows take part, zeros included, so each product is the column-at-a-time
// sum over ascending rows bit for bit.
void ColumnDots(const Matrix& m, std::span<const float> x,
                std::span<const uint32_t> cols, std::span<float> dots) {
  VecMatCols(x, Iota(m.rows()), m, {}, cols, dots);
}

}  // namespace

std::vector<MipsResult> ExactMips(const Matrix& database,
                                  std::span<const float> query, size_t k) {
  SAMPNN_CHECK_EQ(query.size(), database.rows());
  std::vector<float> dots(database.cols());
  ColumnDots(database, query, Iota(database.cols()), dots);
  std::vector<MipsResult> all(database.cols());
  for (size_t j = 0; j < database.cols(); ++j) {
    all[j] = {static_cast<uint32_t>(j), dots[j]};
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end(),
                    [](const MipsResult& a, const MipsResult& b) {
                      return a.inner_product > b.inner_product;
                    });
  all.resize(k);
  return all;
}

StatusOr<AlshMips> AlshMips::Create(const Matrix& database,
                                    const AlshIndexOptions& options,
                                    uint64_t seed) {
  if (database.cols() == 0 || database.rows() == 0) {
    return Status::InvalidArgument("AlshMips: empty database");
  }
  SAMPNN_ASSIGN_OR_RETURN(AlshIndex index,
                          AlshIndex::Create(database.rows(), options, seed));
  index.Build(database);
  return AlshMips(database, std::move(index));
}

AlshMips::AlshMips(const Matrix& database, AlshIndex index)
    : database_(database), index_(std::move(index)) {}

std::vector<MipsResult> AlshMips::Query(std::span<const float> query,
                                        size_t k) const {
  std::vector<uint32_t> candidates;
  index_.Query(query, &candidates);
  std::vector<float> dots(database_.cols());
  ColumnDots(database_, query, candidates, dots);
  std::vector<MipsResult> results;
  results.reserve(candidates.size());
  for (uint32_t id : candidates) results.push_back({id, dots[id]});
  k = std::min(k, results.size());
  std::partial_sort(results.begin(), results.begin() + k, results.end(),
                    [](const MipsResult& a, const MipsResult& b) {
                      return a.inner_product > b.inner_product;
                    });
  results.resize(k);
  return results;
}

void AlshMips::QueryCandidates(std::span<const float> query,
                               std::vector<uint32_t>* out) const {
  index_.Query(query, out);
}

double AlshMips::RecallAtK(const Matrix& queries, size_t k) const {
  SAMPNN_CHECK_EQ(queries.cols(), database_.rows());
  if (queries.rows() == 0 || k == 0) return 0.0;
  double total = 0.0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto query = queries.Row(q);
    const auto exact = ExactMips(database_, query, k);
    const auto approx = Query(query, k);
    size_t hit = 0;
    for (const auto& e : exact) {
      for (const auto& a : approx) {
        if (a.id == e.id) {
          ++hit;
          break;
        }
      }
    }
    total += static_cast<double>(hit) / static_cast<double>(exact.size());
  }
  return total / static_cast<double>(queries.rows());
}

}  // namespace sampnn
