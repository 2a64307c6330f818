#include "src/tensor/kernel_config.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/tensor/gemm.h"
#include "src/util/env.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace sampnn {

namespace {

// 0 = unresolved (read env/hardware on next query).
std::atomic<size_t> g_threads{0};

// Default threshold: a 128^3 product (~4 MFLOP) is roughly where the pack +
// ParallelFor wake cost drops under 10% of kernel time on the recording
// host; everything smaller stays serial.
constexpr uint64_t kDefaultParallelMinFlops = 4'000'000;
std::atomic<uint64_t> g_parallel_min_flops{0};  // 0 = unresolved

enum : int { kUnresolved = -1 };
std::atomic<int> g_deterministic{kUnresolved};

// Ceiling on SAMPNN_THREADS: far above any real machine, low enough that a
// mistyped value cannot ask for a million workers.
constexpr long long kMaxThreads = 1024;

size_t ResolveThreads() {
  // Hardened parse: garbage falls back to 0 (= auto), negative values clamp
  // to 0, absurd values clamp to kMaxThreads; each correction warns once.
  long long env = GetEnvIntInRangeOr("SAMPNN_THREADS", 0, 0, kMaxThreads);
  if (env > 0) return static_cast<size_t>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

thread_local const CancelContext* t_kernel_cancel = nullptr;

// --- Cache geometry and block-size derivation ------------------------------

// Reads one sysfs cache attribute like "48K" / "2048K" / "1M"; 0 on failure.
size_t ReadSysfsCacheSize(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char buf[32] = {};
  const size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (got == 0) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf, &end, 10);
  if (end == buf) return 0;
  size_t bytes = static_cast<size_t>(v);
  if (*end == 'K' || *end == 'k') bytes *= 1024;
  if (*end == 'M' || *end == 'm') bytes *= 1024 * 1024;
  return bytes;
}

CacheGeometry DetectCacheGeometryUncached() {
  CacheGeometry geo;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (l1 > 0) geo.l1d_bytes = static_cast<size_t>(l1);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) geo.l2_bytes = static_cast<size_t>(l2);
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) geo.l3_bytes = static_cast<size_t>(l3);
#endif
#if defined(__linux__)
  // sysconf reports 0 (not an error) on many containerized kernels; fall
  // back to cpu0's sysfs cache directory, which cgroups do not mask.
  if (geo.l1d_bytes == 0 || geo.l2_bytes == 0 || geo.l3_bytes == 0) {
    for (int idx = 0; idx < 8; ++idx) {
      const std::string base =
          "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
      std::FILE* lf = std::fopen((base + "/level").c_str(), "r");
      if (lf == nullptr) break;
      int level = 0;
      const bool got_level = std::fscanf(lf, "%d", &level) == 1;
      std::fclose(lf);
      if (!got_level) continue;
      char type[16] = {};
      std::FILE* tf = std::fopen((base + "/type").c_str(), "r");
      if (tf != nullptr) {
        const bool got_type = std::fscanf(tf, "%15s", type) == 1;
        std::fclose(tf);
        if (!got_type) continue;
      }
      if (std::string(type) == "Instruction") continue;
      const size_t bytes = ReadSysfsCacheSize((base + "/size").c_str());
      if (bytes == 0) continue;
      if (level == 1 && geo.l1d_bytes == 0) geo.l1d_bytes = bytes;
      if (level == 2 && geo.l2_bytes == 0) geo.l2_bytes = bytes;
      if (level == 3 && geo.l3_bytes == 0) geo.l3_bytes = bytes;
    }
  }
#endif
  return geo;
}

size_t RoundDownTo(size_t v, size_t unit) { return v / unit * unit; }

// Derives the default blocking from the detected caches; see the header for
// the per-dimension targets. All values honor the microtile invariants.
GemmBlocking DeriveBlocking(const CacheGeometry& geo) {
  using gemm_internal::kMR;
  using gemm_internal::kNR;
  const size_t l1 = geo.l1d_bytes != 0 ? geo.l1d_bytes : 32 * 1024;
  const size_t l2 = geo.l2_bytes != 0 ? geo.l2_bytes : 1024 * 1024;
  const size_t l3 = geo.l3_bytes != 0 ? geo.l3_bytes : 8 * 1024 * 1024;

  GemmBlocking blk;
  // kc: one A microtile (kMR x kc) + one B microtile (kc x kNR) at ~2/3 of
  // L1d, leaving room for the C tile and the streaming stores.
  blk.kc = std::clamp(
      RoundDownTo(l1 * 2 / 3 / (sizeof(float) * (kMR + kNR)), size_t{8}),
      size_t{64}, size_t{512});
  // mc: packed A block (mc x kc) at ~half of L2; the other half holds the
  // B microtiles streaming through plus the C rows in flight.
  blk.mc = std::clamp(RoundDownTo(l2 / 2 / (sizeof(float) * blk.kc), kMR),
                      kMR * 4, size_t{600});
  // nc: shared packed B panel (kc x nc) within a bounded L3 share (a
  // quarter, capped — huge server L3 numbers must not produce unbounded
  // pack buffers).
  const size_t l3_budget = std::min(l3 / 4, size_t{16} * 1024 * 1024);
  blk.nc = std::clamp(RoundDownTo(l3_budget / (sizeof(float) * blk.kc), kNR),
                      kNR * 4, size_t{4096});
  return blk;
}

// Applies the microtile invariants to one override/env value; 0 = derive.
size_t NormalizeBlockDim(size_t v, size_t unit, size_t max) {
  if (v == 0) return 0;
  return std::clamp(RoundDownTo(v, unit), unit, max);
}

// Packed {mc, kc, nc} snapshot, published as one atomic so concurrent
// readers never observe a half-updated configuration. 16 bits per
// dimension is ample (dimensions cap at 4096).
std::atomic<uint64_t> g_blocking{0};  // 0 = unresolved

uint64_t PackBlocking(const GemmBlocking& blk) {
  return (uint64_t{blk.mc} << 32) | (uint64_t{blk.kc} << 16) |
         uint64_t{blk.nc};
}

GemmBlocking UnpackBlocking(uint64_t packed) {
  return GemmBlocking{static_cast<size_t>(packed >> 32) & 0xffff,
                      static_cast<size_t>(packed >> 16) & 0xffff,
                      static_cast<size_t>(packed) & 0xffff};
}

GemmBlocking ResolveBlocking(size_t mc_override, size_t kc_override,
                             size_t nc_override) {
  using gemm_internal::kMR;
  using gemm_internal::kNR;
  GemmBlocking blk = DeriveBlocking(DetectCacheGeometry());
  auto dim = [](const char* env, size_t override_v, size_t unit, size_t max) {
    if (override_v != 0) return NormalizeBlockDim(override_v, unit, max);
    const long long v = GetEnvIntInRangeOr(env, 0, 0, 4096);
    return NormalizeBlockDim(v > 0 ? static_cast<size_t>(v) : 0, unit, max);
  };
  if (const size_t mc = dim("SAMPNN_GEMM_MC", mc_override, kMR, 4096); mc)
    blk.mc = mc;
  if (const size_t kc = dim("SAMPNN_GEMM_KC", kc_override, 8, 4096); kc)
    blk.kc = kc;
  if (const size_t nc = dim("SAMPNN_GEMM_NC", nc_override, kNR, 4096); nc)
    blk.nc = nc;
  return blk;
}

enum : int { kOversubscribeUnresolved = -1 };
std::atomic<int> g_oversubscribe{kOversubscribeUnresolved};

}  // namespace

const CancelContext* CurrentKernelCancellation() { return t_kernel_cancel; }

ScopedKernelCancellation::ScopedKernelCancellation(const CancelContext* ctx)
    : prev_(t_kernel_cancel) {
  t_kernel_cancel = ctx;
}

ScopedKernelCancellation::~ScopedKernelCancellation() {
  t_kernel_cancel = prev_;
}

size_t GemmThreads() {
  size_t t = g_threads.load(std::memory_order_relaxed);
  if (t == 0) {
    t = ResolveThreads();
    g_threads.store(t, std::memory_order_relaxed);
  }
  return t;
}

void SetGemmThreads(size_t n) {
  g_threads.store(n, std::memory_order_relaxed);
}

uint64_t GemmParallelMinFlops() {
  uint64_t v = g_parallel_min_flops.load(std::memory_order_relaxed);
  if (v == 0) {
    const long long env = GetEnvIntOr("SAMPNN_GEMM_PARALLEL_MIN_FLOPS", 0);
    v = env > 0 ? static_cast<uint64_t>(env) : kDefaultParallelMinFlops;
    g_parallel_min_flops.store(v, std::memory_order_relaxed);
  }
  return v;
}

void SetGemmParallelMinFlops(uint64_t flops) {
  g_parallel_min_flops.store(flops, std::memory_order_relaxed);
}

bool DeterministicKernels() {
  int v = g_deterministic.load(std::memory_order_relaxed);
  if (v == kUnresolved) {
    v = GetEnvIntOr("SAMPNN_DETERMINISTIC_KERNELS", 0) != 0 ? 1 : 0;
    g_deterministic.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void SetDeterministicKernels(bool on) {
  g_deterministic.store(on ? 1 : 0, std::memory_order_relaxed);
}

CacheGeometry DetectCacheGeometry() {
  static const CacheGeometry geo = DetectCacheGeometryUncached();
  return geo;
}

GemmBlocking GemmBlockSizes() {
  uint64_t packed = g_blocking.load(std::memory_order_relaxed);
  if (packed == 0) {
    packed = PackBlocking(ResolveBlocking(0, 0, 0));
    g_blocking.store(packed, std::memory_order_relaxed);
  }
  return UnpackBlocking(packed);
}

void SetGemmBlockSizes(size_t mc, size_t kc, size_t nc) {
  if (mc == 0 && kc == 0 && nc == 0) {
    g_blocking.store(0, std::memory_order_relaxed);  // re-resolve lazily
    return;
  }
  g_blocking.store(PackBlocking(ResolveBlocking(mc, kc, nc)),
                   std::memory_order_relaxed);
}

bool GemmOversubscribe() {
  int v = g_oversubscribe.load(std::memory_order_relaxed);
  if (v == kOversubscribeUnresolved) {
    v = GetEnvIntOr("SAMPNN_GEMM_OVERSUBSCRIBE", 0) != 0 ? 1 : 0;
    g_oversubscribe.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void SetGemmOversubscribe(bool on) {
  g_oversubscribe.store(on ? 1 : 0, std::memory_order_relaxed);
}

size_t GemmEffectiveWorkers(size_t requested) {
  if (requested <= 1 || GemmOversubscribe()) return requested;
  // Every dispatch asks, and hardware_concurrency() reads sysfs on each
  // call (3-4 us on a 4-vCPU Xeon), so it is read once.
  static const unsigned hw = std::thread::hardware_concurrency();
  return std::min<size_t>(requested, hw == 0 ? 1 : hw);
}

}  // namespace sampnn
