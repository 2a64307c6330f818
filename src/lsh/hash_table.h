// L-table ALSH index over the columns of a weight matrix (paper §5.2):
// "ALSH-approx constructs L independent hash tables with 2^K hash buckets
// and assigns a K-bit randomized hash function to every table."

#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "src/lsh/alsh_transform.h"
#include "src/lsh/srp_hash.h"
#include "src/lsh/wta_hash.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace sampnn {

/// Which hash family fills the tables.
enum class LshFamily {
  kSrp,  ///< signed random projections (cosine; the classic ALSH choice)
  kWta,  ///< winner-take-all rank hashes (SLIDE's choice for sparse
         ///< non-negative activations)
};

/// Parses "srp" | "wta".
StatusOr<LshFamily> LshFamilyFromString(const std::string& name);
/// Canonical lowercase name.
const char* LshFamilyToString(LshFamily family);

/// Hyperparameters of one per-layer ALSH index.
struct AlshIndexOptions {
  size_t bits = 6;             ///< K — bits per meta hash (paper default K=6)
  size_t tables = 5;           ///< L — number of tables (paper default L=5)
  size_t max_bucket_size = 0;  ///< 0 = unbounded; else reservoir-capped
  LshFamily family = LshFamily::kSrp;
  size_t wta_window = 8;       ///< WTA window (log2(window) bits/sub-hash)
  AlshTransformOptions transform;  ///< m and U for P/Q
};

/// Occupancy statistics, used by tests and the LSH micro bench.
struct AlshIndexStats {
  size_t num_items = 0;
  size_t num_tables = 0;
  size_t buckets_per_table = 0;
  size_t nonempty_buckets = 0;     ///< across all tables
  size_t max_bucket_occupancy = 0;
  double avg_nonempty_occupancy = 0.0;
};

/// \brief L independent SRP hash tables over ALSH-transformed vectors.
///
/// Items are the column indices of the matrix passed to Build(). Query()
/// returns the union of the probed buckets — the "active node" set.
class AlshIndex {
 public:
  /// `dim` is the original (untransformed) vector dimension.
  static StatusOr<AlshIndex> Create(size_t dim, const AlshIndexOptions& options,
                                    uint64_t seed);

  /// (Re)hashes all columns of `w` into the tables; w.rows() must equal dim.
  /// Refits the data scale from the current column norms. Columns are
  /// transformed in row-major blocks and inserted in ascending column
  /// order, table by table, so capped buckets draw the reservoir stream in
  /// a fixed order.
  void Build(const Matrix& w);

  /// Caller-owned probe buffers, reused across Query() calls so the probe
  /// path does not allocate. One per thread.
  struct QueryScratch {
    std::vector<float> transformed;  ///< Q(a), length dim + m
    std::vector<uint32_t> codes;     ///< one bucket code per table
  };

  /// Probes the L tables with query `a` (length dim) and writes the union
  /// of bucket members to `out` (cleared first). Members are unique and
  /// sorted ascending. Thread-safe against concurrent Query() calls with
  /// distinct scratches (but not against a concurrent Build()).
  void Query(std::span<const float> a, std::vector<uint32_t>* out,
             QueryScratch* scratch) const;
  /// As above with a temporary scratch (allocates; off the training path).
  void Query(std::span<const float> a, std::vector<uint32_t>* out) const {
    QueryScratch scratch;
    Query(a, out, &scratch);
  }

  /// Members of bucket `code` of table `table`, in insertion order.
  const std::vector<uint32_t>& bucket(size_t table, uint32_t code) const {
    return buckets_[table][code];
  }

  /// Number of indexed items (columns of the last Build matrix).
  size_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }
  const AlshIndexOptions& options() const { return options_; }
  const AlshTransform& transform() const { return transform_; }

  /// Number of Build() calls so far (hash-table reconstruction counter).
  size_t build_count() const { return build_count_; }

  AlshIndexStats ComputeStats() const;

  /// Serializes the mutable index state for checkpointing: bucket contents,
  /// item/build counters, fitted transform scale, and the reservoir RNG.
  /// Hash functions are NOT serialized — they are deterministic in the
  /// Create() seed, so save/load must pair indexes created with the same
  /// (dim, options, seed). Buckets are saved verbatim because they were
  /// built from *older* weights: rebuilding from current weights on resume
  /// would diverge from the uninterrupted run.
  Status SaveState(std::ostream& out) const;
  /// Restores state written by SaveState(). Validates table/bucket layout
  /// against this index's configuration; InvalidArgument on mismatch.
  Status LoadState(std::istream& in);

 private:
  AlshIndex(size_t dim, const AlshIndexOptions& options,
            AlshTransform transform, std::optional<SrpHash> srp,
            std::vector<WtaHash> wta, uint64_t reservoir_seed);

  // Every table's bucket code for one transformed vector.
  void Codes(std::span<const float> transformed,
             std::span<uint32_t> codes) const;

  size_t dim_;
  AlshIndexOptions options_;
  AlshTransform transform_;
  std::optional<SrpHash> srp_;  // kSrp: all L meta hashes, fused
  std::vector<WtaHash> wta_;    // kWta: one meta hash per table
  // buckets_[t][code] = item ids. Flat per table for locality.
  std::vector<std::vector<std::vector<uint32_t>>> buckets_;
  size_t num_items_ = 0;
  size_t build_count_ = 0;
  Rng reservoir_rng_;
};

}  // namespace sampnn
